(** The CPU interpreter with dynamic instrumentation.

    Execution is two-phase: each step first {e computes} the full effect
    record of the current instruction (operand values, memory addresses,
    would-be writes, control destination, even the fault it is about to
    raise) without touching machine state, then presents it to the
    registered pre-hooks, and only then commits. This is what lets a VSEF
    veto a single store or control transfer before the corruption happens —
    the analogue of attaching PIN instrumentation to a running process.

    The interpreter has two tiers. {!step} is the reference, and the only
    interpreter of {!Isa.instr} in this module. With a compiled table
    attached ({!attach_blocks}, built by {!Block_compile.table}), {!run}
    executes unhooked instructions as compiled closures (no effect
    record, no hook dispatch) and drops to {!step} only at pcs with hooks
    installed, when global hooks exist, or for instructions compiled code
    cannot reproduce exactly (syscalls, anything that would fault).
    Observable semantics are identical either way; instrumentation
    overhead is proportional to the hooked instructions actually
    executed. *)

type hook = Event.effect_ -> unit

type hooks

type block_code
(** A program's compiled table: per basic block, a fused closure
    executing the whole body with one bounds check and one hook-mask/fuel
    test at entry; per instruction, a fully guarded single-instruction
    closure; plus the pc -> block maps. Built once per program by
    {!Block_compile.table}
    and never written afterwards, so any number of CPUs running that
    program — on any domain — share it read-only via {!attach_blocks}. *)

type block_table = {
  bt_entry : int array array;
      (** shared: per segment, instruction index -> block id at entry
          pcs, else -1 *)
  bt_cover : int array array;
      (** shared: per segment, instruction index -> covering block id,
          else -1 *)
  bt_len : int array;  (** shared: per block, instruction count *)
  bt_fn : (t -> int) array;
      (** shared: per block, the fused closure (returns the instructions
          retired; on a decline it leaves [pc] at the block entry) *)
  bt_one : (t -> int) array array;
      (** shared: per segment, instruction index -> the single closure
          (returns 1 when it retired the instruction, 0 when it declined
          before mutating state) *)
  bt_hooks : int array;  (** per CPU, per block: pcs on the hook mask *)
  bt_valid : Bytes.t;  (** per CPU, per block: ['\001'] unless invalidated *)
  bt_ok : Bytes.t;  (** per CPU, per block: [bt_valid] && [bt_hooks] = 0 *)
}
(** One CPU's view of the tier: the {!block_code} arrays it shares with
    every other CPU running the same program (never written once built),
    beside this CPU's own demotion state. Managed through
    {!attach_blocks}, {!clear_blocks}, and {!invalidate_block}; demotion
    never leaks to other CPUs sharing the same {!block_code}. *)

and t = {
  regs : int array;
  mutable pc : int;
  mutable flag_a : int;  (** first operand of the last [Cmp] *)
  mutable flag_b : int;  (** second operand of the last [Cmp] *)
  mem : Memory.t;
  code : Program.t;
  layout : Layout.t;
  mutable sys_handler : t -> Event.effect_ -> int -> unit;
      (** OS services; fills [e_sys] of the effect it is given *)
  mutable halted : bool;
  mutable icount : int;  (** dynamic instructions executed *)
  mutable fast_retired : int;
      (** instructions retired one at a time by compiled single-instruction
          closures. Monotonic — unlike [icount], rollback does not rewind
          it. *)
  mutable slow_retired : int;
      (** instructions retired on the instrumented path. Monotonic. *)
  mutable block_retired : int;
      (** instructions retired inside compiled basic-block
          superinstructions. Batched per block. Monotonic;
          [block_retired + fast_retired + slow_retired] equals the
          instructions ever executed, in every configuration. *)
  mutable fault_count : int;  (** machine faults surfaced by {!run} *)
  mutable elision_trips : int;
      (** times a bounds-elided block closure saw an address outside its
          statically proven range; each trip permanently demotes the
          block to the fully guarded single-instruction closures *)
  hooks : hooks;
  pc_hook_mask : Bytes.t array;
      (** parallel to [code.segments]: non-zero bytes mark pcs with per-pc
          hooks, steering {!run}'s dispatch to the instrumented path *)
  mutable blocks : block_table option;
      (** this CPU's view of a shared compiled block table, when attached *)
  scratch : Event.effect_;
      (** the one effect record the instrumented path reuses for every
          instruction — hooks may read it only during their callback *)
  scr_read : Event.access;   (** scratch buffer: the instruction's one read *)
  scr_write : Event.access;  (** scratch buffer: the instruction's one write *)
  scr_mr : Event.access list;  (** preallocated [[scr_read]] *)
  scr_mw : Event.access list;  (** preallocated [[scr_write]] *)
}

type outcome =
  | Halted
  | Blocked  (** a syscall would block; re-run when input is available *)
  | Faulted of Event.fault
  | Out_of_fuel

val create : mem:Memory.t -> layout:Layout.t -> code:Program.t -> t

val get_reg : t -> Isa.reg -> int
val set_reg : t -> Isa.reg -> int -> unit

(** Opaque handle for removing an installed hook. *)
type hook_id

val add_pre_hook : t -> hook -> hook_id
(** Hook every instruction, before state commit. *)

val add_post_hook : t -> hook -> hook_id
(** Hook every instruction, after commit (syscall effects visible). *)

val add_pc_hook : t -> pc:int -> hook -> hook_id
(** Pre-commit hook firing only at [pc] — the cheap, targeted
    instrumentation VSEFs are made of. *)

val add_pc_post_hook : t -> pc:int -> hook -> hook_id
(** Post-commit hook at one [pc] — for observing a syscall's result. *)

val remove_hook : t -> hook_id -> unit

val pc_hook_count : t -> int
(** Per-pc hooks (pre and post) currently installed — the VSEF
    footprint. *)

val global_hook_count : t -> int
(** Every-instruction hooks (pre and post) currently installed. Analyses
    that fuse their instrumentation into a private run loop (see
    {!Sweeper.Taint.run}) use this to verify nobody else is listening
    before bypassing the generic hook dispatch. *)

val fetch : t -> int -> Isa.instr
(** The instruction at an address; raises [Event.Fault (Exec_violation _)]
    when the address is unmapped or misaligned — exactly the fault
    {!step} would raise. Allocation-free. *)

val step : t -> Event.effect_
(** Execute one instruction on the instrumented path, always building the
    full effect record. The returned record is the CPU's reused scratch
    record: it is only valid until the next instruction executes — copy
    out anything you keep. Raises [Event.Fault] on machine faults (state
    unchanged, pc at the faulting instruction), [Event.Blocked] when a
    syscall would block, and propagates exceptions raised by hooks
    (detections) before commit. *)

val run : ?fuel:int -> t -> outcome
(** Run until halt, fault, block, or [fuel] instructions. Fault state is
    preserved so the core-dump analyzer can inspect it. With a table
    attached and no global hooks, unhooked instructions execute as
    compiled block superinstructions, or one at a time on the table's
    single closures where a block cannot run (mid-block resume, demoted
    blocks, the fuel tail); with no table, every instruction runs on
    {!step}. Observable semantics are identical to repeated {!step}.
    [fuel] is exact in every tier: a block is entered only when the
    remaining fuel covers its whole body (block-entry fuel clamping), so
    [Out_of_fuel] lands on the same icount as per-instruction
    execution. *)

(** {2 Compiled tier} *)

val block_code :
  Program.t ->
  one:(t -> int) array array ->
  (int * int * (t -> int)) array ->
  block_code
(** Build the shared table of a program from compiled basic blocks given
    as [(entry_pc, length, closure)] triples and from [one], the
    single-instruction closures of every segment ([one.(si).(ii)] runs
    instruction [ii] of segment [si]) — normally via
    {!Block_compile.table}, which derives the bounds from a CFG and
    compiles the closures. Raises [Invalid_argument] if a block's entry
    is outside the program, a block overruns its segment, or [one] does
    not have the program's shape. *)

val attach_blocks : t -> block_code -> unit
(** Engage the compiled tier on a CPU with a shared table, replacing any
    previous one. Allocates only this CPU's demotion state; blocks containing
    currently hooked pcs start demoted, and subsequent hook
    attach/detach keeps the demotion in sync, effective no later than
    the next block entry. Raises [Invalid_argument] if the table was
    built for a different {!Program.t} than the CPU's [code] (compared
    physically: the closures bake in that program's instructions). *)

val clear_blocks : t -> unit
(** Remove the table; every instruction then runs on {!step}. *)

val invalidate_block : t -> pc:int -> unit
(** Permanently demote the block containing [pc] to its single-instruction
    closures on this CPU only — other CPUs sharing the table keep
    running it (takes effect no later than the next block entry). *)

val elision_trip : t -> pc:int -> unit
(** The soundness tripwire of bounds-check elision: count a proven-safe
    access caught outside its static range and {!invalidate_block} the
    block containing [pc]. Called by elided {!Block_compile} closures
    just before they decline. *)

val block_count : t -> int
(** Compiled blocks attached (0 when the tier is off). *)

(** Register-file snapshots (memory snapshots live in {!Memory}; the OS
    layer combines both into checkpoints). *)
type reg_snapshot

val snapshot_regs : t -> reg_snapshot
val restore_regs : t -> reg_snapshot -> unit
