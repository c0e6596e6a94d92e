(** Dynamic slicing over a compact replay trace.

    During replay the {!Engine} records one packed entry per dynamic
    instruction (its code index and effective address; receives point at a
    side record). The backward slice from the faulting instruction is then
    computed offline by a backward demand walk over that trace: an
    instruction is in the slice iff it is the nearest earlier writer of a
    register, memory byte, or the flags or branch pseudo-location that an
    instruction already in the slice reads — reachability in the dynamic
    dependence graph (data, flag and control dependences), without building
    the graph. The slice is a superset of what taint analysis sees, which
    is why it acts as the sanity check on every other analysis. Forward
    slices (everything an input influenced) come from the same trace. *)

module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t

(** The recorded trace (opaque; kept inside a {!session}). *)
type t

type summary = {
  s_nodes : int;        (** dynamic instructions in the window *)
  s_slice_size : int;   (** dynamic instructions in the slice *)
  s_pcs : Int_set.t;    (** static instructions in the slice *)
  s_msgs : Int_set.t;   (** input messages the fault depends on *)
  s_fault_pc : int;
}

type result = {
  sl_summary : summary;
  sl_instructions : int;
}

val run : ?fuel:int -> Osim.Process.t -> result
(** Record the replay, slice backward from the fault (or from the final
    instruction if the replay ended cleanly). The projection of
    {!run_session}. *)

val verifies : summary -> int -> bool
(** Does the slice contain an instruction another analysis blamed? The
    slice is the ground truth: a claim outside it is wrong. *)

(** A forward slice: every dynamic instruction influenced by a seed set. *)
type forward = {
  fw_size : int;       (** dynamic instructions influenced *)
  fw_pcs : Int_set.t;  (** static instructions influenced *)
}

(** A replay that keeps its trace for further queries. *)
type session = {
  trace : t;
  outcome : Vm.Cpu.outcome;
  backward : summary;
}

val run_session : ?fuel:int -> Osim.Process.t -> session

val forward_from_message : session -> msg_id:int -> forward
(** Everything influenced by the given input message. *)
