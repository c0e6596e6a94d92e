(** Dynamic taint analysis (the TaintCheck re-implementation).

    Network bytes are tainted with the id of the message they arrived in;
    taint flows through data movement and arithmetic (not through pointers
    or control flow — that is what distinguishes it from slicing) and an
    alarm is raised when tainted data is about to be used as a control
    target.

    Internally the engine keeps taint as interned label-set ids over paged
    shadow memory (parallel to {!Vm.Memory}'s pages), and {!run} replays on
    the shared {!Engine} instead of the per-instruction effect-record path
    — the heavyweight analysis at close to fast-path speed. *)

module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t

type verdict =
  | Tainted_ret of { pc : int; msgs : Int_set.t }
      (** a return address built from these messages was about to be used *)
  | Tainted_call of { pc : int; msgs : Int_set.t }
  | Tainted_store_fault of { pc : int; msgs : Int_set.t }
      (** the faulting store was writing attacker-controlled bytes *)
  | Tainted_exec of { pc : int; msgs : Int_set.t }
      (** tainted bytes reached [system]/[exec] *)
  | Untainted_fault of { pc : int }
      (** the fault involved no tainted data (e.g. a NULL dereference
          through an untainted pointer) *)
  | No_fault

(** Tracker state, exposed so sampling and other online monitors can drive
    the engine hook-by-hook. *)
type t

val create : ?static:Static_an.Staint.t -> Osim.Process.t -> t
(** [static] (an analysis of the same program) builds the fused loop's
    taint plans already pruned to the static must-hook set [K] and arms
    the per-[Ret] return-site tripwire; omit it for a fully instrumented
    tracker. *)

val on_effect : t -> Vm.Event.effect_ -> unit
(** The propagation rule, applied per committed instruction (register this
    as a post-hook). *)

val guard : t -> Vm.Event.effect_ -> unit
(** A pre-hook check that stops tainted data {e before} it is misused —
    raises {!Detection.Detected} on a tainted return target, indirect-call
    target, or [exec] argument (the argument scan covers the command
    string's actual NUL-terminated bytes, up to the same length cap the
    syscall layer's [load_cstring] applies). TaintCheck as an online
    monitor: what a sampling host or sentinel node runs. *)

val classify_fault : t -> Vm.Cpu.outcome -> verdict
(** After a replay ends, classify its outcome (the fault itself pre-empts
    hooks, so the verdict is computed from machine state at the fault). *)

type result = {
  t_verdict : verdict;
  t_prop_pcs : int list;  (** taint-propagating instructions *)
  t_instructions : int;
}

val verdict_msgs : verdict -> int list
val verdict_to_string : verdict -> string

val run : ?fuel:int -> ?static:Static_an.Staint.t -> Osim.Process.t -> result
(** Run the replay to completion on the {!Engine} with the tracker
    attached, then classify. The engine replays on its fused fast loop
    when nothing else is instrumenting the CPU; observable results are
    identical to the hook-driven path either way. [static] (a {!Static_an.Staint}
    result for the same program — [Invalid_argument] otherwise) prunes the
    fused loop's shadow work to the statically reachable propagation pcs
    without changing any result. *)

val run_pruned :
  ?fuel:int -> static:Static_an.Staint.t -> Osim.Process.t -> result
(** Replay with the tracker installed only at the pcs the static analysis
    proves it could matter at (per-pc post hooks on the must-hook set [K]);
    every other instruction retires on the interpreter's compiled code.
    Byte-identical results to {!run}. *)

val vsef_of_result :
  app:string -> proc:Osim.Process.t -> result -> Vsef.t option
(** The taint-derived VSEF: propagation instructions plus the sink. *)
