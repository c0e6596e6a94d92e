(* Differential tests for the two execution tiers: the reference
   effect-record path ([Cpu.step]) and the compiled code of
   [Block_compile], run both as fused blocks and one instruction at a
   time, must be observably indistinguishable. Each case builds identical
   machines — a reference machine with no compiled table (every
   instruction on [step]), a block machine with the table attached, and a
   per-instruction machine with the table attached but every block
   invalidated, so it runs on the single-instruction closures — runs all
   of them, and compares every piece of architectural state — outcome,
   registers, pc, flags, halt, icount, and memory (including
   page-boundary windows). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Deterministic qcheck runs by default; QCHECK_SEED overrides. (The
   stock QCheck_alcotest default self-seeds from the clock, which makes
   failures unreproducible — so the seed is pinned here instead.) *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 0x5EED)
    | None -> 0x5EED
  in
  Random.State.make [| seed |]

let outcome_t : Vm.Cpu.outcome Alcotest.testable =
  Alcotest.testable
    (fun fmt o ->
      Format.pp_print_string fmt
        (match o with
        | Vm.Cpu.Halted -> "Halted"
        | Vm.Cpu.Blocked -> "Blocked"
        | Vm.Cpu.Out_of_fuel -> "Out_of_fuel"
        | Vm.Cpu.Faulted f -> "Faulted: " ^ Vm.Event.fault_to_string f))
    ( = )

(* A machine over [instrs] loaded at the app code base, with no compiled
   table: the reference tier runs every instruction. Registers
   R1-R4 pre-pointed at interesting data addresses so random loads and
   stores mostly land in mapped memory, and a recognizable pattern seeded
   around the first data-page boundary. *)
let make_cpu instrs =
  let mem = Vm.Memory.create () in
  let l = Vm.Layout.create ~aslr:false () in
  let base = l.Vm.Layout.app_code_base in
  let code = Vm.Program.of_instrs ~base (Array.of_list instrs) in
  let l =
    Vm.Layout.set_code_limits l
      ~app_limit:(base + (List.length instrs * Vm.Isa.instr_size))
      ~lib_limit:l.Vm.Layout.lib_code_base
  in
  let cpu = Vm.Cpu.create ~mem ~layout:l ~code in
  cpu.Vm.Cpu.pc <- base;
  Vm.Cpu.set_reg cpu Vm.Isa.SP (l.Vm.Layout.stack_top - 16);
  let data = l.Vm.Layout.data_base in
  let boundary = data + Vm.Memory.page_size in
  Vm.Memory.store_bytes mem data
    (String.init 64 (fun i -> Char.chr (0x41 + (i mod 26))));
  Vm.Memory.store_bytes mem (boundary - 8)
    (String.init 16 (fun i -> Char.chr (0x61 + i)));
  Vm.Cpu.set_reg cpu Vm.Isa.R1 data;
  Vm.Cpu.set_reg cpu Vm.Isa.R2 (boundary - 4);
  Vm.Cpu.set_reg cpu Vm.Isa.R3 (data + 40);
  Vm.Cpu.set_reg cpu Vm.Isa.R4 7;
  (cpu, l)

(* Architectural state + the memory windows the programs can reach. *)
let observe (cpu : Vm.Cpu.t) (l : Vm.Layout.t) outcome =
  let data = l.Vm.Layout.data_base in
  let boundary = data + Vm.Memory.page_size in
  ( outcome,
    Array.to_list cpu.Vm.Cpu.regs,
    cpu.Vm.Cpu.pc,
    (cpu.Vm.Cpu.flag_a, cpu.Vm.Cpu.flag_b),
    cpu.Vm.Cpu.halted,
    cpu.Vm.Cpu.icount,
    Vm.Memory.load_bytes cpu.Vm.Cpu.mem data 128,
    Vm.Memory.load_bytes cpu.Vm.Cpu.mem (boundary - 32) 64,
    Vm.Memory.load_bytes cpu.Vm.Cpu.mem (l.Vm.Layout.stack_top - 64) 64 )

(* A machine with its basic blocks compiled into superinstructions — the
   configuration Process.load sets up for real app images. *)
let make_block_cpu instrs =
  let cpu, l = make_cpu instrs in
  Vm.Block_compile.install cpu
    (Static_an.Cfg.block_bounds (Static_an.Cfg.build cpu.Vm.Cpu.code));
  (cpu, l)

(* A block machine with every block invalidated: each unhooked
   instruction retires on its compiled single-instruction closure. *)
let make_pi_cpu instrs =
  let cpu, l = make_block_cpu instrs in
  let base = l.Vm.Layout.app_code_base in
  List.iteri
    (fun i _ ->
      Vm.Cpu.invalidate_block cpu ~pc:(base + (i * Vm.Isa.instr_size)))
    instrs;
  (cpu, l)

(* The tier counters must partition the executed stream exactly; none of
   these programs roll back, so icount is an independent total. *)
let tiers_conserved (cpu : Vm.Cpu.t) =
  cpu.Vm.Cpu.block_retired + cpu.Vm.Cpu.fast_retired + cpu.Vm.Cpu.slow_retired
  = cpu.Vm.Cpu.icount

(* Instructions the per-instruction machines of [run_three] retired on
   single closures, summed over every run: the differential property
   must really exercise them, not a second reference run. *)
let pi_fast_total = ref 0

(* Run the same program on the three machines, returning the
   observations (per-instruction, reference, block) plus whether both
   compiled machines' tier counters partitioned their executed stream
   (and the per-instruction one never entered a block). *)
let run_three ?(fuel = 300) instrs =
  let pi, l_pi = make_pi_cpu instrs in
  let rf, l_rf = make_cpu instrs in
  let block, l_block = make_block_cpu instrs in
  let op = Vm.Cpu.run ~fuel pi in
  let orf = Vm.Cpu.run ~fuel rf in
  let ob = Vm.Cpu.run ~fuel block in
  pi_fast_total := !pi_fast_total + pi.Vm.Cpu.fast_retired;
  ( observe pi l_pi op,
    observe rf l_rf orf,
    observe block l_block ob,
    tiers_conserved block && tiers_conserved pi && pi.Vm.Cpu.block_retired = 0
  )

let run_both ?fuel instrs =
  let p, r, _, _ = run_three ?fuel instrs in
  (p, r)

(* ------------------------------------------------------------------ *)
(* qcheck: random programs agree between the tiers                     *)
(* ------------------------------------------------------------------ *)

let gen_program : Vm.Isa.instr list QCheck.Gen.t =
  let open QCheck.Gen in
  let open Vm.Isa in
  let reg = oneofl [ R0; R1; R2; R3; R4; R5; R6; R7; R8; R9; SP; FP ] in
  let mem_base = oneofl [ R1; R2; R3; R1; R2; R5; SP ] in
  let binop = oneofl [ Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr ] in
  let cond = oneofl [ Eq; Ne; Lt; Le; Gt; Ge; Ult; Uge ] in
  let imm =
    frequency
      [
        (4, int_range (-6) 40);
        (1, oneofl [ 0x08100000; 0x08100ffe; 0x09000000; 0; 0x7FFFFFFF ]);
      ]
  in
  let off = int_range (-8) 12 in
  sized_size (int_range 8 40) (fun n ->
      let instr i =
        (* forward-only branch targets, occasionally one past the end so
           running off the program is exercised too *)
        let fwd = int_range (i + 1) n in
        frequency
          [
            (3, map2 (fun r v -> Mov (r, Imm v)) reg imm);
            (2, map2 (fun rd rs -> Mov (rd, Reg rs)) reg reg);
            (3, map3 (fun op rd v -> Bin (op, rd, Imm v)) binop reg imm);
            (2, map3 (fun op rd rs -> Bin (op, rd, Reg rs)) binop reg reg);
            (1, map (fun r -> Not r) reg);
            (1, map (fun r -> Neg r) reg);
            (2, map3 (fun rd rs o -> Load (rd, rs, o)) reg mem_base off);
            (2, map3 (fun rd rs o -> Loadb (rd, rs, o)) reg mem_base off);
            (2, map3 (fun rb o rs -> Store (rb, o, rs)) mem_base off reg);
            (2, map3 (fun rb o rs -> Storeb (rb, o, rs)) mem_base off reg);
            (1, map (fun v -> Push (Imm v)) imm);
            (1, map (fun r -> Push (Reg r)) reg);
            (1, map (fun r -> Pop r) reg);
            (2, map2 (fun r v -> Cmp (r, Imm v)) reg imm);
            (1, map2 (fun rd rs -> Cmp (rd, Reg rs)) reg reg);
            (1, map (fun n -> Syscall n) (int_range 0 3));
            (1, map (fun t -> Jmp (Addr (0x08048000 + (4 * t)))) fwd);
            ( 2,
              map2 (fun c t -> Jcc (c, Addr (0x08048000 + (4 * t)))) cond fwd
            );
          ]
      in
      let rec build i acc =
        if i >= n then return (List.rev (Vm.Isa.Halt :: acc))
        else instr i >>= fun ins -> build (i + 1) (ins :: acc)
      in
      build 0 [])

let program_arb =
  QCheck.make ~print:(fun p -> string_of_int (List.length p) ^ " instrs")
    gen_program

let diff_qcheck =
  QCheck.Test.make
    ~name:"block == per-instruction == reference (random programs)"
    ~count:120 program_arb
    (fun instrs ->
      let pi, rf, block, conserved = run_three instrs in
      pi = rf && block = rf && conserved)

(* Scheduler-quantum discipline on the block tier: running in fuel quanta
   must land each stop on the exact icount — a block is entered only when
   the remaining quantum covers its whole body, so [run ~fuel] never
   overshoots — and the quantized run must end in the same architectural
   state as one uninterrupted run. This is the property that keeps
   Osim.Sched's interleaved == sequential discipline intact with
   superinstructions installed. *)
let quanta_qcheck =
  QCheck.Test.make
    ~name:"fuel quanta are exact on the block tier (random programs)"
    ~count:60
    (QCheck.pair program_arb (QCheck.int_range 1 13))
    (fun (instrs, quantum) ->
      let cpu, l = make_block_cpu instrs in
      let exact = ref true in
      let steps = ref 0 in
      let rec go () =
        let before = cpu.Vm.Cpu.icount in
        let o = Vm.Cpu.run ~fuel:quantum cpu in
        incr steps;
        match o with
        | Vm.Cpu.Out_of_fuel when !steps < 1000 ->
          (* an exhausted quantum consumed exactly [quantum] instrs *)
          if cpu.Vm.Cpu.icount - before <> quantum then exact := false;
          go ()
        | o -> o
      in
      let o = go () in
      let rf, l_rf = make_cpu instrs in
      let orf = Vm.Cpu.run ~fuel:(quantum * !steps) rf in
      !exact
      && tiers_conserved cpu
      && observe cpu l o = observe rf l_rf orf)

(* ------------------------------------------------------------------ *)
(* Directed equivalences                                               *)
(* ------------------------------------------------------------------ *)

(* A strcat-shaped byte-copy loop whose destination straddles the first
   data-page boundary: exercises the one-entry TLBs across a page switch
   on both the load and store sides. *)
let copy_program ~src ~dst ~len =
  let open Vm.Isa in
  let base = 0x08048000 in
  [
    Mov (R1, Imm src);
    Mov (R2, Imm dst);
    Mov (R0, Imm 0);
    (* loop: *)
    Loadb (R3, R1, 0);
    Storeb (R2, 0, R3);
    Bin (Add, R1, Imm 1);
    Bin (Add, R2, Imm 1);
    Bin (Add, R0, Imm 1);
    Cmp (R0, Imm len);
    Jcc (Lt, Addr (base + (3 * 4)));
    Halt;
  ]

let test_page_crossing_copy () =
  let data = 0x08100000 in
  let boundary = data + Vm.Memory.page_size in
  let instrs = copy_program ~src:data ~dst:(boundary - 12) ~len:24 in
  let (o1, _, _, _, h1, i1, d1, b1, _), (o2, _, _, _, h2, i2, d2, b2, _) =
    run_both ~fuel:1000 instrs
  in
  Alcotest.check outcome_t "same outcome" o2 o1;
  check_bool "halted" h2 h1;
  check_int "icount" i2 i1;
  check_str "data window" d2 d1;
  check_str "boundary window" b2 b1;
  (* And the copy really happened across the boundary. *)
  let cpu, l = make_pi_cpu instrs in
  ignore (Vm.Cpu.run ~fuel:1000 cpu);
  check_str "copied across page boundary"
    (String.init 24 (fun i -> Char.chr (0x41 + (i mod 26))))
    (Vm.Memory.load_bytes cpu.Vm.Cpu.mem
       (l.Vm.Layout.data_base + Vm.Memory.page_size - 12)
       24)

let test_mid_run_fault () =
  let open Vm.Isa in
  let base = 0x08048000 in
  let instrs =
    [
      Mov (R5, Imm 0x08100010);
      Store (R5, 0, R5);
      Mov (R5, Imm 0x40);  (* low 64 KiB: never mapped *)
      Store (R5, 0, R5);
      Halt;
    ]
  in
  let (o1, _, pc1, _, _, i1, _, _, _), (o2, _, pc2, _, _, i2, _, _, _) =
    run_both instrs
  in
  Alcotest.check outcome_t "same fault" o2 o1;
  Alcotest.check outcome_t "exact fault"
    (Vm.Cpu.Faulted (Vm.Event.Segv_write 0x40))
    o1;
  check_int "pc stays at faulting instruction" (base + 12) pc1;
  check_int "same pc" pc2 pc1;
  check_int "fault does not count as executed" 3 i1;
  check_int "same icount" i2 i1

let test_div_zero_fault () =
  let open Vm.Isa in
  let instrs =
    [ Mov (R0, Imm 5); Mov (R1, Imm 0); Bin (Div, R0, Reg R1); Halt ]
  in
  let (o1, _, pc1, _, _, i1, _, _, _), (o2, _, pc2, _, _, i2, _, _, _) =
    run_both instrs
  in
  Alcotest.check outcome_t "same outcome" o2 o1;
  Alcotest.check outcome_t "div-zero fault" (Vm.Cpu.Faulted Vm.Event.Div_zero) o1;
  check_int "same pc" pc2 pc1;
  check_int "same icount" i2 i1

(* ------------------------------------------------------------------ *)
(* Hook attach/detach while running                                    *)
(* ------------------------------------------------------------------ *)

(* R0 counts to 1000 in a 3-instruction loop:
   base+0: Mov R0,0 / +4: Add / +8: Cmp / +12: Jcc / +16: Halt *)
let counting_loop () =
  let open Vm.Isa in
  let base = 0x08048000 in
  [
    Mov (R0, Imm 0);
    Bin (Add, R0, Imm 1);
    Cmp (R0, Imm 1000);
    Jcc (Lt, Addr (base + 4));
    Halt;
  ]

(* Runs on the per-instruction machine, so every transition crosses
   between the compiled single closures and the reference [step]. *)
let test_attach_detach_mid_run () =
  let base = 0x08048000 in
  let cpu, _ = make_pi_cpu (counting_loop ()) in
  (* Warm up on compiled code: Mov + 3 iterations, pc back at Add. *)
  Alcotest.check outcome_t "warmup runs out of fuel" Vm.Cpu.Out_of_fuel
    (Vm.Cpu.run ~fuel:10 cpu);
  check_int "warmup executed" 10 cpu.Vm.Cpu.icount;
  check_int "warmup retired on single closures" 10 cpu.Vm.Cpu.fast_retired;
  check_int "pc mid-loop" (base + 4) cpu.Vm.Cpu.pc;
  (* Attach a pc-hook ahead of the current pc, mid-run: every subsequent
     pass over the Cmp must hit it — compiled code may not skip one. *)
  let fired = ref 0 in
  let h = Vm.Cpu.add_pc_hook cpu ~pc:(base + 8) (fun _ -> incr fired) in
  check_int "hook counted" 1 (Vm.Cpu.pc_hook_count cpu);
  Alcotest.check outcome_t "more fuel" Vm.Cpu.Out_of_fuel
    (Vm.Cpu.run ~fuel:30 cpu);
  check_int "10 full iterations hit the hooked Cmp 10 times" 10 !fired;
  check_int "only the hooked pc took the reference path" 10
    cpu.Vm.Cpu.slow_retired;
  (* Detach: the pc must transition back to compiled code and go silent. *)
  Vm.Cpu.remove_hook cpu h;
  check_int "hook gone" 0 (Vm.Cpu.pc_hook_count cpu);
  let fast_before = cpu.Vm.Cpu.fast_retired in
  Alcotest.check outcome_t "more fuel" Vm.Cpu.Out_of_fuel
    (Vm.Cpu.run ~fuel:30 cpu);
  check_int "detached hook is silent" 10 !fired;
  check_int "detached pc is back on compiled code" (fast_before + 30)
    cpu.Vm.Cpu.fast_retired;
  (* A global hook attached mid-run sees every instruction... *)
  let seen = ref 0 in
  let g = Vm.Cpu.add_pre_hook cpu (fun _ -> incr seen) in
  Alcotest.check outcome_t "more fuel" Vm.Cpu.Out_of_fuel
    (Vm.Cpu.run ~fuel:9 cpu);
  check_int "global hook fires per instruction" 9 !seen;
  (* ...and after removal the program still completes correctly. *)
  Vm.Cpu.remove_hook cpu g;
  Alcotest.check outcome_t "finishes" Vm.Cpu.Halted (Vm.Cpu.run cpu);
  check_int "loop reached its bound" 1000 (Vm.Cpu.get_reg cpu Vm.Isa.R0);
  check_bool "tiers conserved" true (tiers_conserved cpu);
  (* The whole mixed-mode run executed exactly as many instructions as an
     all-reference run would have. *)
  let ref_cpu, _ = make_cpu (counting_loop ()) in
  Alcotest.check outcome_t "reference halts" Vm.Cpu.Halted (Vm.Cpu.run ref_cpu);
  check_int "icount matches an uninterrupted run" ref_cpu.Vm.Cpu.icount
    cpu.Vm.Cpu.icount

let test_post_hook_masks_fast_path () =
  (* A pc-level *post* hook must also force the instrumented path (it
     needs the effect record) on a machine whose other pcs run compiled
     code; check it observes the right effect. *)
  let base = 0x08048000 in
  let cpu, _ = make_pi_cpu (counting_loop ()) in
  let writes = ref 0 in
  let h =
    Vm.Cpu.add_pc_post_hook cpu ~pc:(base + 4) (fun eff ->
        writes := !writes + List.length (Vm.Event.regs_written eff))
  in
  Alcotest.check outcome_t "halts" Vm.Cpu.Halted (Vm.Cpu.run cpu);
  check_int "post hook saw every Add commit" 1000 !writes;
  check_int "only the hooked Add took the reference path" 1000
    cpu.Vm.Cpu.slow_retired;
  check_bool "the rest retired on single closures" true
    (cpu.Vm.Cpu.fast_retired > 0 && tiers_conserved cpu);
  Vm.Cpu.remove_hook cpu h;
  check_int "footprint clear" 0 (Vm.Cpu.pc_hook_count cpu)

(* ------------------------------------------------------------------ *)
(* Mid-block events on the superinstruction tier                       *)
(* ------------------------------------------------------------------ *)

(* Attaching a hook to a pc inside a compiled block must demote that
   block no later than the next block entry: every subsequent pass over
   the hooked pc fires, none is skipped by a resident superinstruction.
   Detaching re-promotes the block. *)
let test_block_hook_demotion () =
  let base = 0x08048000 in
  let cpu, _ = make_block_cpu (counting_loop ()) in
  check_bool "blocks compiled" true (Vm.Cpu.block_count cpu > 0);
  (* Mov + 3 iterations; the loop body [Add;Cmp;Jcc] is one block, so
     fuel 10 stops exactly at its entry. *)
  Alcotest.check outcome_t "warmup runs out of fuel" Vm.Cpu.Out_of_fuel
    (Vm.Cpu.run ~fuel:10 cpu);
  check_int "pc at block entry" (base + 4) cpu.Vm.Cpu.pc;
  let retired_before = cpu.Vm.Cpu.block_retired in
  check_bool "warmup retired in blocks" true (retired_before > 0);
  (* Hook the middle of the loop block, mid-run. *)
  let fired = ref 0 in
  let h = Vm.Cpu.add_pc_hook cpu ~pc:(base + 8) (fun _ -> incr fired) in
  Alcotest.check outcome_t "more fuel" Vm.Cpu.Out_of_fuel
    (Vm.Cpu.run ~fuel:30 cpu);
  check_int "10 iterations hit the hooked Cmp 10 times" 10 !fired;
  check_int "demoted block retired nothing while hooked" retired_before
    cpu.Vm.Cpu.block_retired;
  (* Detach: the block must be promoted again and go back to retiring. *)
  Vm.Cpu.remove_hook cpu h;
  Alcotest.check outcome_t "more fuel" Vm.Cpu.Out_of_fuel
    (Vm.Cpu.run ~fuel:30 cpu);
  check_int "no stale hook fires after detach" 10 !fired;
  check_bool "re-promoted block retires again" true
    (cpu.Vm.Cpu.block_retired > retired_before);
  Alcotest.check outcome_t "finishes" Vm.Cpu.Halted (Vm.Cpu.run cpu);
  check_int "loop reached its bound" 1000 (Vm.Cpu.get_reg cpu Vm.Isa.R0);
  check_bool "tiers conserved" true (tiers_conserved cpu);
  (* Same icount as an uninterrupted per-instruction run. *)
  let ref_cpu, _ = make_cpu (counting_loop ()) in
  Alcotest.check outcome_t "reference halts" Vm.Cpu.Halted (Vm.Cpu.run ref_cpu);
  check_int "icount matches an uninterrupted run" ref_cpu.Vm.Cpu.icount
    cpu.Vm.Cpu.icount

(* Explicit invalidation permanently demotes one block, execution stays
   correct, and the counters account the demotion. *)
let test_block_invalidation () =
  let base = 0x08048000 in
  let cpu, _ = make_block_cpu (counting_loop ()) in
  Alcotest.check outcome_t "warmup" Vm.Cpu.Out_of_fuel (Vm.Cpu.run ~fuel:10 cpu);
  let retired_before = cpu.Vm.Cpu.block_retired in
  Vm.Cpu.invalidate_block cpu ~pc:(base + 8);
  Alcotest.check outcome_t "finishes" Vm.Cpu.Halted (Vm.Cpu.run cpu);
  (* Only the one-instruction [Halt] block retires as a block after the
     loop block is demoted — the invalidated block never runs fused
     again. *)
  check_int "invalidated block never retires again" (retired_before + 1)
    cpu.Vm.Cpu.block_retired;
  check_int "loop reached its bound" 1000 (Vm.Cpu.get_reg cpu Vm.Isa.R0);
  check_bool "tiers conserved" true (tiers_conserved cpu)

(* A program whose second block faults in its middle: Store to the
   never-mapped low 64 KiB sits two instructions into the block, so the
   superinstruction executes real work and then must decline with state
   byte-identical to per-instruction execution at the faulting pc. *)
let mid_block_fault_program () =
  let open Vm.Isa in
  let base = 0x08048000 in
  [
    Mov (R0, Imm 0);
    Cmp (R0, Imm 0);
    Jcc (Eq, Addr (base + 12));
    (* block: two real instructions, then the faulting store *)
    Bin (Add, R0, Imm 5);
    Store (R1, 0, R0);
    Mov (R5, Imm 0x40);
    Store (R5, 0, R5);
    (* unreachable *)
    Halt;
  ]

let test_mid_block_fault_and_restore () =
  let instrs = mid_block_fault_program () in
  let rf, l_rf, block, l_block =
    let f, lf = make_cpu instrs in
    let b, lb = make_block_cpu instrs in
    (f, lf, b, lb)
  in
  (* Checkpoint the block machine before running (regs + memory — the
     same pair Osim.Checkpoint captures). *)
  let regs_ck = Vm.Cpu.snapshot_regs block in
  let mem_ck = Vm.Memory.snapshot block.Vm.Cpu.mem in
  let o_rf = Vm.Cpu.run rf in
  let o_block = Vm.Cpu.run block in
  Alcotest.check outcome_t "same fault"
    (Vm.Cpu.Faulted (Vm.Event.Segv_write 0x40))
    o_block;
  Alcotest.check outcome_t "reference faults identically" o_rf o_block;
  check_bool "state byte-identical at the faulting pc" true
    (observe rf l_rf o_rf = observe block l_block o_block);
  check_bool "tiers conserved across the fault" true (tiers_conserved block);
  (* Restore the checkpoint and re-run: the replay must reproduce the
     fault exactly, block table still installed. *)
  Vm.Cpu.restore_regs block regs_ck;
  Vm.Memory.restore block.Vm.Cpu.mem mem_ck;
  let o_replay = Vm.Cpu.run block in
  Alcotest.check outcome_t "replay reproduces the fault" o_block o_replay;
  check_bool "replayed state identical" true
    (observe rf l_rf o_rf = observe block l_block o_replay)

(* A declining block leaves the entry pc for the dispatcher to advance,
   which is exact only while no earlier instruction wrote the pc: a block
   with a control transfer before its last instruction is refused. *)
let test_terminator_inside_block () =
  let cpu, l = make_cpu (counting_loop ()) in
  Alcotest.check_raises "Jcc inside the block"
    (Invalid_argument "Block_compile.compile: terminator inside a block")
    (fun () ->
      ignore
        (Vm.Block_compile.table cpu.Vm.Cpu.code
           [| (l.Vm.Layout.app_code_base, 5) |]
          : Vm.Cpu.block_code))

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) in
  Alcotest.run "vm-diff"
    [
      ( "differential",
        [
          (let name, speed, run = qt diff_qcheck in
           ( name,
             speed,
             fun () ->
               run ();
               check_bool "per-instruction machines retired on single closures"
                 true (!pi_fast_total > 0) ));
          qt quanta_qcheck;
        ] );
      ( "directed",
        [
          Alcotest.test_case "page-crossing copy" `Quick test_page_crossing_copy;
          Alcotest.test_case "mid-run fault" `Quick test_mid_run_fault;
          Alcotest.test_case "div-zero fault" `Quick test_div_zero_fault;
        ] );
      ( "hooks-mid-run",
        [
          Alcotest.test_case "attach/detach transitions" `Quick
            test_attach_detach_mid_run;
          Alcotest.test_case "pc post-hook masks fast path" `Quick
            test_post_hook_masks_fast_path;
        ] );
      ( "block-tier",
        [
          Alcotest.test_case "hook demotes block by next entry" `Quick
            test_block_hook_demotion;
          Alcotest.test_case "explicit invalidation" `Quick
            test_block_invalidation;
          Alcotest.test_case "mid-block fault + checkpoint restore" `Quick
            test_mid_block_fault_and_restore;
          Alcotest.test_case "terminator inside a block is refused" `Quick
            test_terminator_inside_block;
        ] );
    ]
