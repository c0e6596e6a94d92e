(** Dynamic memory-bug detection, attached during sandboxed replay.

    Detects the three bug classes of the paper's Section 3.2 — stack
    smashing (writes to saved return-address slots, with pre-existing
    frames inferred from the frame pointer), heap overflow (stores outside
    any live chunk, with pre-checkpoint buffers inferred from the heap
    image), and double frees — and attributes each to the offending
    instruction, which the refined VSEFs are built from. *)

type finding =
  | Stack_smash of { store_pc : int; slot_addr : int }
  | Heap_overflow of { store_pc : int; addr : int }
  | Double_free of { call_pc : int; ptr : int }
  | Dangling_write of { store_pc : int; addr : int }

type report = {
  m_findings : finding list;  (** in detection order, one per site *)
  m_fault : Vm.Event.fault option;  (** the replayed crash, if it recurred *)
  m_instructions : int;  (** dynamic instructions monitored *)
}

val finding_pc : finding -> int
val finding_to_string : describe:(int -> string) -> finding -> string

val vsef_of_finding :
  app:string -> proc:Osim.Process.t -> finding -> Vsef.t option
(** The refined VSEF a finding justifies; [proc] supplies the image bases
    for making the check relocatable. *)

val run : ?fuel:int -> Osim.Process.t -> report
(** Replay on the {!Engine} with the detector attached — it acts only at
    stores, pushes, calls and returns, plus allocation syscalls — until the
    process faults, blocks or halts. Call after rolling back with the
    network log in replay mode. *)
