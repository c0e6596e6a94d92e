(** The replay engine every heavyweight analysis runs on.

    Taint, membug and slicing replay the attack from a checkpoint on one
    segment-pinned loop. It executes each instruction on its compiled
    single-instruction closure from the CPU's attached table
    ({!Vm.Block_compile}) and hands the client its pre-decoded {e plan
    word} and the instruction's {e effective address}, read before it ran
    — the only pre-execution value any client needs.
    Instructions compiled code declines (syscalls, anything about to
    fault) re-run on the instrumented path and reach the client as
    committed effect records. When foreign hooks are installed (VSEF
    pc-hooks, a flight recorder) or no table is attached, the engine
    replays on {!Vm.Cpu.run} with the client as one more global post-hook
    instead; results are identical. *)

val plans : Vm.Program.t -> (int -> Vm.Isa.instr -> int) -> int array
(** [plans code f]: one plan word per instruction, indexed by {e code
    index} (instructions numbered densely across segments in base order).
    [f idx instr] gives the client bits, in [\[0, 2^16)]; 0 means the
    client has nothing to do there. The engine adds the address field. *)

val replan : Vm.Program.t -> int array -> (int -> Vm.Isa.instr -> int) -> unit
(** Rewrite a plan array in place; a replay in flight sees the new words
    from its next instruction on. *)

val index : Vm.Program.t -> int -> int
(** The code index of [pc], or [-1] when unmapped or misaligned. *)

val pc : Vm.Program.t -> int -> int
(** The address of a code index. *)

type client = {
  plans : int array;  (** see {!plans} *)
  act : int -> int -> int -> unit;
      (** [act plan ea idx], right after the instruction at code index
          [idx] retired on compiled code, for plan words with client bits.
          [ea] is the address of the instruction's one memory access
          (meaningless if it has none). *)
  on_effect : Vm.Event.effect_ -> unit;
      (** every instruction retired on the instrumented path, after
          commit *)
}

val run : ?fuel:int -> client -> Vm.Cpu.t -> Vm.Cpu.outcome
(** Replay until halt, fault, block or [fuel] instructions (default
    20,000,000), exactly as {!Vm.Cpu.run} would, with the client attached.
    Instructions retired on compiled code are charged to [fast_retired],
    so block + fast + slow still equals executed. *)
