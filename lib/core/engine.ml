(** The replay engine shared by taint, membug and slicing (see the
    interface). Plan word layout: bits 0-15 the client's bits, 16-19 the
    base register index, 20+ the signed offset. Every memory access on
    this machine is a register plus a constant ([SP - 4] for pushes and
    calls, [SP] for pops and returns), so the effective address is one add
    and a mask. *)

let client_mask = 0xFFFF

let addr_field (i : Vm.Isa.instr) =
  let open Vm.Isa in
  let at base off = (reg_index base lsl 16) lor (off lsl 20) in
  match i with
  | Load (_, rs, off) | Loadb (_, rs, off) -> at rs off
  | Store (rb, off, _) | Storeb (rb, off, _) -> at rb off
  | Push _ | Call _ | CallInd _ -> at SP (-4)
  | Pop _ | Ret -> at SP 0
  | Mov _ | Bin _ | Not _ | Neg _ | Cmp _ | Jmp _ | Jcc _ | Syscall _ | Halt
  | Nop ->
    0

let word f idx instr =
  let bits = f idx instr in
  if bits < 0 || bits > client_mask then
    invalid_arg "Engine.plans: client bits out of range";
  if bits = 0 then 0 else bits lor addr_field instr

let replan (code : Vm.Program.t) plans f =
  let base = ref 0 in
  Array.iter
    (fun s ->
      Array.iteri
        (fun i instr -> plans.(!base + i) <- word f (!base + i) instr)
        s.Vm.Program.seg_instrs;
      base := !base + Array.length s.Vm.Program.seg_instrs)
    code.Vm.Program.segments

let plans code f =
  let p = Array.make (Vm.Program.length code) 0 in
  replan code p f;
  p

let () = assert (Vm.Isa.instr_size = 4)

let rec index_in segs pc i base =
  if i >= Array.length segs then -1
  else
    let s = Array.unsafe_get segs i in
    if pc >= s.Vm.Program.seg_base && pc < s.Vm.Program.seg_limit then
      let off = pc - s.Vm.Program.seg_base in
      if off land 3 <> 0 then -1 else base + (off lsr 2)
    else index_in segs pc (i + 1) (base + Array.length s.Vm.Program.seg_instrs)

let index (code : Vm.Program.t) pc = index_in code.Vm.Program.segments pc 0 0

let rec pc_in segs idx i =
  let s = segs.(i) in
  let n = Array.length s.Vm.Program.seg_instrs in
  if idx < n then s.Vm.Program.seg_base + (idx lsl 2)
  else pc_in segs (idx - n) (i + 1)

let pc (code : Vm.Program.t) idx = pc_in code.Vm.Program.segments idx 0

type client = {
  plans : int array;
  act : int -> int -> int -> unit;
  on_effect : Vm.Event.effect_ -> unit;
}

(* ------------------------------------------------------------------ *)
(* Fused replay loop                                                   *)
(* ------------------------------------------------------------------ *)

(* The effective address, read from the registers before the instruction
   executes (a load may overwrite its own base register). *)
let effective_address cpu p =
  (Array.unsafe_get cpu.Vm.Cpu.regs ((p lsr 16) land 15) + (p asr 20))
  land 0xFFFFFFFF

(* Declined by compiled code: re-run on the instrumented path. A fault or
   block raises out of [step] before commit, so the client sees nothing —
   post-commit hook semantics. *)
let slow c cpu = c.on_effect (Vm.Cpu.step cpu)

(* One instruction retired by its single closure: account it as
   [Vm.Cpu.run] does, so block + fast + slow stays equal to executed. *)
let retire cpu =
  cpu.Vm.Cpu.icount <- cpu.Vm.Cpu.icount + 1;
  cpu.Vm.Cpu.fast_retired <- cpu.Vm.Cpu.fast_retired + 1

(* Segment-pinned inner loop (the shape of the interpreter's own tier
   loop): while the pc stays inside [s], run each instruction's compiled
   single closure from [one]; [base] is the code index of the segment's
   first instruction. Returns the remaining fuel — unchanged iff no
   progress was made. Top-level recursion, not a closure: the hot loop
   must not allocate. The plan array and action ride in arguments rather
   than being re-read from the client record each instruction. *)
let rec fused_seg c plans act cpu s one base fuel =
  if cpu.Vm.Cpu.halted || fuel <= 0 then fuel
  else
    let pc = cpu.Vm.Cpu.pc in
    let off = pc - s.Vm.Program.seg_base in
    if off < 0 || pc >= s.Vm.Program.seg_limit then fuel (* left the segment *)
    else if off land 3 <> 0 then fuel (* misaligned: slow path faults *)
    else begin
      let ii = off lsr 2 in
      let idx = base + ii in
      let p = Array.unsafe_get plans idx in
      (if p land client_mask = 0 then begin
         if (Array.unsafe_get one ii) cpu <> 0 then retire cpu else slow c cpu
       end
       else
         let ea = effective_address cpu p in
         if (Array.unsafe_get one ii) cpu <> 0 then begin
           retire cpu;
           act p ea idx
         end
         else slow c cpu);
      fused_seg c plans act cpu s one base (fuel - 1)
    end

let fused_run c cpu (bt : Vm.Cpu.block_table) fuel =
  let segs = cpu.Vm.Cpu.code.Vm.Program.segments in
  let rec go n =
    if cpu.Vm.Cpu.halted then Vm.Cpu.Halted
    else if n <= 0 then Vm.Cpu.Out_of_fuel
    else dispatch n cpu.Vm.Cpu.pc 0 0
  and dispatch n pc i base =
    if i >= Array.length segs then begin
      slow c cpu (* unmapped pc: faults there *)
      ; go (n - 1)
    end
    else
      let s = Array.unsafe_get segs i in
      if pc >= s.Vm.Program.seg_base && pc < s.Vm.Program.seg_limit then begin
        let n' =
          fused_seg c c.plans c.act cpu s
            (Array.unsafe_get bt.Vm.Cpu.bt_one i)
            base n
        in
        if n' = n then begin
          slow c cpu;
          go (n' - 1)
        end
        else go n'
      end
      else dispatch n pc (i + 1) (base + Array.length s.Vm.Program.seg_instrs)
  in
  try go fuel with
  | Vm.Event.Fault f ->
    cpu.Vm.Cpu.fault_count <- cpu.Vm.Cpu.fault_count + 1;
    Vm.Cpu.Faulted f
  | Vm.Event.Blocked -> Vm.Cpu.Blocked

let run ?(fuel = 20_000_000) c cpu =
  match cpu.Vm.Cpu.blocks with
  | Some bt
    when Vm.Cpu.global_hook_count cpu = 0 && Vm.Cpu.pc_hook_count cpu = 0 ->
    fused_run c cpu bt fuel
  | _ ->
    (* Foreign hooks are listening, or no compiled table is attached:
       every instruction must take the hooked interpreter, so the client
       rides along as one more post-hook. *)
    let hook = Vm.Cpu.add_post_hook cpu c.on_effect in
    Fun.protect
      ~finally:(fun () -> Vm.Cpu.remove_hook cpu hook)
      (fun () -> Vm.Cpu.run ~fuel cpu)
