(* The original taint engine: one hashtable entry per tainted byte,
   label sets passed around as AVL sets, every instruction on the generic
   instrumented path. Same propagation rules, same guard spec, same
   verdicts as [Sweeper.Taint]; only the data structures (and the speed)
   differ. Kept as the differential-testing reference. *)

module Int_set = Sweeper.Taint.Int_set
module Detection = Sweeper.Detection

type verdict = Sweeper.Taint.verdict =
  | Tainted_ret of { pc : int; msgs : Int_set.t }
  | Tainted_call of { pc : int; msgs : Int_set.t }
  | Tainted_store_fault of { pc : int; msgs : Int_set.t }
  | Tainted_exec of { pc : int; msgs : Int_set.t }
  | Untainted_fault of { pc : int }
  | No_fault

type result = Sweeper.Taint.result = {
  t_verdict : verdict;
  t_prop_pcs : int list;
  t_instructions : int;
}

(* The syscall layer's [load_cstring] limit; the exec sink scan covers
   exactly the same bytes. *)
let exec_scan_limit = 65536

type state = {
  o_proc : Osim.Process.t;
  byte_taint : (int, Int_set.t) Hashtbl.t;
  o_reg_taint : Int_set.t array;
  mutable prop_pcs : Int_set.t;  (** instructions that moved taint *)
  mutable o_sources_seen : Int_set.t;  (** message ids read *)
}

let create proc =
  {
    o_proc = proc;
    byte_taint = Hashtbl.create 1024;
    o_reg_taint = Array.make Vm.Isa.num_regs Int_set.empty;
    prop_pcs = Int_set.empty;
    o_sources_seen = Int_set.empty;
  }

let byte_set st addr =
  match Hashtbl.find_opt st.byte_taint addr with
  | Some s -> s
  | None -> Int_set.empty

let mem_taint st (a : Vm.Event.access) =
  let rec go acc i =
    if i >= a.a_size then acc
    else go (Int_set.union acc (byte_set st (a.a_addr + i))) (i + 1)
  in
  go Int_set.empty 0

let set_mem_taint st addr size taint =
  for i = 0 to size - 1 do
    if Int_set.is_empty taint then Hashtbl.remove st.byte_taint (addr + i)
    else Hashtbl.replace st.byte_taint (addr + i) taint
  done

let reg st r = st.o_reg_taint.(Vm.Isa.reg_index r)
let set_reg st r v = st.o_reg_taint.(Vm.Isa.reg_index r) <- v

let operand_taint st = function
  | Vm.Isa.Reg r -> reg st r
  | Vm.Isa.Imm _ | Vm.Isa.Sym _ -> Int_set.empty

let on_effect st (eff : Vm.Event.effect_) =
  let mark taint =
    if not (Int_set.is_empty taint) then
      st.prop_pcs <- Int_set.add eff.e_pc st.prop_pcs
  in
  (match eff.e_instr with
  | Vm.Isa.Mov (rd, op) ->
    let t = operand_taint st op in
    mark t;
    set_reg st rd t
  | Vm.Isa.Bin (_, rd, src) ->
    let t = Int_set.union (reg st rd) (operand_taint st src) in
    mark t;
    set_reg st rd t
  | Vm.Isa.Not rd | Vm.Isa.Neg rd -> mark (reg st rd)
  | Vm.Isa.Load (rd, _, _) | Vm.Isa.Loadb (rd, _, _) ->
    let t =
      List.fold_left
        (fun acc a -> Int_set.union acc (mem_taint st a))
        Int_set.empty eff.e_mem_reads
    in
    mark t;
    set_reg st rd t
  | Vm.Isa.Store (_, _, rs) | Vm.Isa.Storeb (_, _, rs) ->
    let t = reg st rs in
    mark t;
    List.iter
      (fun (a : Vm.Event.access) -> set_mem_taint st a.a_addr a.a_size t)
      eff.e_mem_writes
  | Vm.Isa.Push op ->
    let t = operand_taint st op in
    mark t;
    List.iter
      (fun (a : Vm.Event.access) -> set_mem_taint st a.a_addr a.a_size t)
      eff.e_mem_writes
  | Vm.Isa.Pop rd ->
    let t =
      List.fold_left
        (fun acc a -> Int_set.union acc (mem_taint st a))
        Int_set.empty eff.e_mem_reads
    in
    mark t;
    set_reg st rd t
  | Vm.Isa.Call _ | Vm.Isa.CallInd _ ->
    (* The pushed return address is clean. *)
    List.iter
      (fun (a : Vm.Event.access) ->
        set_mem_taint st a.a_addr a.a_size Int_set.empty)
      eff.e_mem_writes
  | Vm.Isa.Cmp _ | Vm.Isa.Jmp _ | Vm.Isa.Jcc _ | Vm.Isa.Ret
  | Vm.Isa.Syscall _ | Vm.Isa.Halt | Vm.Isa.Nop ->
    ());
  match eff.e_sys with
  | Vm.Event.Io_recv { buf; len; msg_id } ->
    st.o_sources_seen <- Int_set.add msg_id st.o_sources_seen;
    for i = 0 to len - 1 do
      Hashtbl.replace st.byte_taint (buf + i) (Int_set.singleton msg_id)
    done;
    set_reg st Vm.Isa.R0 Int_set.empty
  | Vm.Event.Io_alloc _ | Vm.Event.Io_free _ | Vm.Event.Io_send _
  | Vm.Event.Io_exit _ | Vm.Event.Io_other _ ->
    set_reg st Vm.Isa.R0 Int_set.empty
  | Vm.Event.Io_exec _ -> ()
  | Vm.Event.Io_none -> ()

let guard st (eff : Vm.Event.effect_) =
  let tainted_set =
    match eff.e_instr with
    | Vm.Isa.Ret ->
      List.fold_left
        (fun acc a -> Int_set.union acc (mem_taint st a))
        Int_set.empty eff.e_mem_reads
    | Vm.Isa.CallInd r -> reg st r
    | Vm.Isa.Syscall n when n = Vm.Sysno.sys_exec ->
      (* Same sink spec as the fast engine's {!guard}: the shadow of the
         command string's actual bytes, load_cstring's length cap. *)
      let addr = Vm.Cpu.get_reg st.o_proc.Osim.Process.cpu Vm.Isa.R0 in
      let mem = st.o_proc.Osim.Process.mem in
      let rec scan acc i =
        if i >= exec_scan_limit then acc
        else if Vm.Memory.load_byte mem (addr + i) = 0 then acc
        else scan (Int_set.union acc (byte_set st (addr + i))) (i + 1)
      in
      scan Int_set.empty 0
    | _ -> Int_set.empty
  in
  if not (Int_set.is_empty tainted_set) then
    Detection.detect
      (Detection.Taint_sink
         (String.concat ","
            (List.map string_of_int (Int_set.elements tainted_set))))
      ~pc:eff.e_pc ~detail:"tainted data about to be misused"

let classify_fault st (outcome : Vm.Cpu.outcome) : verdict =
  let cpu = st.o_proc.Osim.Process.cpu in
  let pc = cpu.Vm.Cpu.pc in
  let word_at addr = mem_taint st { a_addr = addr; a_size = 4; a_value = 0 } in
  match outcome with
  | Vm.Cpu.Faulted _ -> (
    match Vm.Program.fetch cpu.Vm.Cpu.code pc with
    | Some Vm.Isa.Ret ->
      let sp = Vm.Cpu.get_reg cpu Vm.Isa.SP in
      let t = word_at sp in
      if Int_set.is_empty t then Untainted_fault { pc }
      else Tainted_ret { pc; msgs = t }
    | Some (Vm.Isa.CallInd r) ->
      let t = reg st r in
      if Int_set.is_empty t then Untainted_fault { pc }
      else Tainted_call { pc; msgs = t }
    | Some (Vm.Isa.Store (_, _, rs) | Vm.Isa.Storeb (_, _, rs)) ->
      let t = reg st rs in
      if Int_set.is_empty t then Untainted_fault { pc }
      else Tainted_store_fault { pc; msgs = t }
    | _ -> Untainted_fault { pc })
  | Vm.Cpu.Halted | Vm.Cpu.Blocked | Vm.Cpu.Out_of_fuel -> (
    match st.o_proc.Osim.Process.compromised with
    | Some _ -> Tainted_exec { pc; msgs = st.o_sources_seen }
    | None -> No_fault)

(** The original hook-driven replay: every instruction on the generic
    instrumented path. *)
let run ?(fuel = 20_000_000) (proc : Osim.Process.t) : result =
  let st = create proc in
  let before = proc.Osim.Process.cpu.Vm.Cpu.icount in
  let hook = Vm.Cpu.add_post_hook proc.cpu (on_effect st) in
  let outcome = Vm.Cpu.run ~fuel proc.cpu in
  Vm.Cpu.remove_hook proc.cpu hook;
  {
    t_verdict = classify_fault st outcome;
    t_prop_pcs = Int_set.elements st.prop_pcs;
    t_instructions = proc.Osim.Process.cpu.Vm.Cpu.icount - before;
  }
