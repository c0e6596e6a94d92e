(** The compiled execution tier: the one copy of instruction semantics
    besides the reference {!Cpu.step}.

    Compiles each basic block of a program into one fused OCaml closure —
    a chain of per-instruction specialized closures where fallthrough is
    a tail call — so {!Cpu.run} pays one bounds check and one
    hook-mask/fuel test per {e block} instead of per instruction, and
    compiles every instruction on its own into a fully guarded
    single-instruction closure for the places a block cannot run
    (mid-block resumption, demoted blocks, the fuel tail, the replay
    engine). Every closure honors a decline-before-mutate contract: a
    syscall, fault, unresolved symbol, or invalid indirect-control target
    stops before mutating state and hands the pc back to {!Cpu.step},
    leaving machine state byte-identical to per-instruction execution.

    {b Bounds-proof elision.} When the caller supplies [safe_of] — per-pc
    facts from {!Static_an.Absint} — each Load/Loadb/Store/Storeb whose
    effective address is statically proven to stay inside one
    runtime-constant region [\[lo, hi)] swaps the full
    {!Layout.valid_data} walk (a multi-range check involving the mutable
    heap break) for two compares against the baked-in constants. The
    static proof only covers CFG-following executions, so the residual
    compare is also the soundness tripwire: an address outside the range
    (only reachable via a control-flow hijack, or a wrong proof) counts
    an {!Cpu.elision_trip}, permanently demotes the block to the fully
    guarded single-instruction closures on the tripping CPU (the shared
    closures are untouched; only that CPU's demotion state changes), and
    declines — behaviour stays byte-identical to a never-elided run in
    every case; only tier accounting differs. *)

val compile :
  ?safe_of:(int -> (int * int) option) ->
  Program.t ->
  entry_pc:int ->
  len:int ->
  Cpu.t ->
  int
(** [compile code ~entry_pc ~len] fuses the [len] instructions starting
    at [entry_pc] into one closure obeying the block contract: it
    returns the number of instructions retired (= [len] iff the whole
    block ran, including via a taken terminator, with [pc] at the next
    instruction to execute; less on a decline, with [pc] left at
    [entry_pc] for the caller to advance by that many instructions), and
    never touches [icount] or the retirement counters — {!Cpu.run}
    accounts the returned count. Raises [Invalid_argument] if the range
    is not decoded code within a single segment, or if any instruction
    but the last is an {!Isa.is_terminator}. [safe_of pc] returning
    [Some (lo, hi)] elides the memory guard of the access at [pc] down to
    a range check against the constant region [\[lo, hi)]. *)

val table :
  ?safe_of:(int -> (int * int) option) ->
  Program.t ->
  (int * int) array ->
  Cpu.block_code
(** [table code bounds] compiles each [(entry_pc, length)] pair —
    typically [Static_an.Cfg.block_bounds code] — and every instruction
    of [code] on its own into the program's shared table. [safe_of]
    applies to the blocks only: the single-instruction closures keep
    every guard, so a block demoted by an elision trip never trusts a
    proof again. Compile it once per program: the closures capture no
    CPU, so one table serves every CPU running [code] through
    {!Cpu.attach_blocks}, each with its own demotion state. *)

val install :
  ?safe_of:(int -> (int * int) option) -> Cpu.t -> (int * int) array -> unit
(** [install cpu bounds] is [Cpu.attach_blocks cpu (table cpu.code
    bounds)]: a table compiled for, and attached to, one CPU. Blocks
    overlapping currently hooked pcs stay demoted until the hooks
    detach. *)
