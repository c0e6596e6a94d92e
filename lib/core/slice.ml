(** Dynamic slicing over a compact replay trace (see the interface, and
    DESIGN.md §5 for why the backward demand walk equals reachability in
    the dynamic dependence graph).

    During replay the {!Engine} records one packed entry per dynamic
    instruction; everything else an instruction reads and writes is
    static, kept in per-instruction use/def masks. The backward walk keeps
    a demand set — registers, memory bytes, and the flags and branch
    pseudo-locations that a slice member reads and no later instruction
    has written — and an instruction joins the slice iff it writes a
    demanded location. Forward slices walk the same trace forward. *)

module Int_set = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Static use/def masks                                                *)
(* ------------------------------------------------------------------ *)

(* One int per code index. A location mask has one bit per register
   (0-15), [flags_bit] and [branch_bit]; [info] packs the uses (bits 0-17),
   the defs (bits 18-35) and the memory access: bits 36-37 none / read /
   write, bit 38 set for a 1-byte access. *)
let flags_bit = 1 lsl 16
let branch_bit = 1 lsl 17
let loc_bits = 18
let loc_mask = (1 lsl loc_bits) - 1
let acc_read = 1
let acc_write = 2

let info_of_instr (i : Vm.Isa.instr) =
  let open Vm.Isa in
  let r x = 1 lsl reg_index x in
  let op = function Reg x -> r x | Imm _ | Sym _ -> 0 in
  let sp = r SP in
  (* uses, defs, access, byte-sized *)
  let uses, defs, acc, byte =
    match i with
    | Mov (rd, o) -> (op o, r rd, 0, false)
    | Bin (_, rd, o) -> (r rd lor op o, r rd, 0, false)
    | Not rd | Neg rd -> (r rd, r rd, 0, false)
    | Load (rd, rs, _) -> (r rs, r rd, acc_read, false)
    | Loadb (rd, rs, _) -> (r rs, r rd, acc_read, true)
    | Store (rb, _, rs) -> (r rb lor r rs, 0, acc_write, false)
    | Storeb (rb, _, rs) -> (r rb lor r rs, 0, acc_write, true)
    | Push o -> (sp lor op o, sp, acc_write, false)
    | Pop rd -> (sp, r rd lor sp, acc_read, false)
    | Cmp (x, o) -> (r x lor op o, flags_bit, 0, false)
    | Jcc _ -> (flags_bit, branch_bit, 0, false)
    | Call _ -> (sp, sp lor branch_bit, acc_write, false)
    | CallInd x -> (r x lor sp, sp lor branch_bit, acc_write, false)
    | Ret -> (sp, sp lor branch_bit, acc_read, false)
    | Syscall _ -> (r R0 lor r R1 lor r R2 lor r R3, 0, 0, false)
    | Jmp _ | Halt | Nop -> (0, 0, 0, false)
  in
  (* Every instruction is control dependent on the last branch. *)
  let size_bit = if byte then 1 lsl 38 else 0 in
  uses lor branch_bit lor (defs lsl loc_bits) lor (acc lsl 36) lor size_bit

let uses inf = inf land loc_mask
let defs inf = (inf lsr loc_bits) land loc_mask
let access inf = (inf lsr 36) land 3
let access_size inf = if inf land (1 lsl 38) <> 0 then 1 else 4

(* ------------------------------------------------------------------ *)
(* The trace                                                           *)
(* ------------------------------------------------------------------ *)

(* Entries live in fixed-size Bigarray chunks: appending is one store,
   and the GC never scans the trace. An entry is
   [(code index lsl 33) lor (side lsl 32) lor low], where [low] is the
   32-bit effective address, or — with [side] set — the index of a
   receive's side record. Packing the code index rather than the pc keeps
   every entry inside OCaml's 63-bit int for any address. *)
type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let side_tag = 1 lsl 32
let low_mask = side_tag - 1

type recv = { r_buf : int; r_len : int; r_msg : int }

type t = {
  code : Vm.Program.t;
  info : int array;  (** per code index, see [info_of_instr] *)
  mutable chunks : chunk array;  (** full chunks, then the current one *)
  mutable cur : chunk;
  mutable pos : int;  (** entries used in [cur] *)
  mutable recvs : recv list;  (** side records, newest first *)
  mutable n_recvs : int;
}

let new_chunk () : chunk =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout chunk_size

let create code =
  let cur = new_chunk () in
  {
    code;
    info =
      Array.concat
        (Array.to_list
           (Array.map
              (fun s -> Array.map info_of_instr s.Vm.Program.seg_instrs)
              code.Vm.Program.segments));
    chunks = [| cur |];
    cur;
    pos = 0;
    recvs = [];
    n_recvs = 0;
  }

let length tr = ((Array.length tr.chunks - 1) lsl chunk_bits) + tr.pos

let record tr e =
  let pos = tr.pos in
  if pos < chunk_size then begin
    Bigarray.Array1.unsafe_set tr.cur pos e;
    tr.pos <- pos + 1
  end
  else begin
    let c = new_chunk () in
    Bigarray.Array1.unsafe_set c 0 e;
    tr.chunks <- Array.append tr.chunks [| c |];
    tr.cur <- c;
    tr.pos <- 1
  end

let entry tr i =
  Bigarray.Array1.unsafe_get
    (Array.unsafe_get tr.chunks (i lsr chunk_bits))
    (i land (chunk_size - 1))

(* The instrumented path (syscalls, or everything under foreign hooks):
   the same entry, copied out of the effect record. *)
let on_effect tr (eff : Vm.Event.effect_) =
  let idx = Engine.index tr.code eff.e_pc in
  match eff.e_sys with
  | Vm.Event.Io_recv { buf; len; msg_id } ->
    tr.recvs <- { r_buf = buf; r_len = len; r_msg = msg_id } :: tr.recvs;
    record tr ((idx lsl 33) lor side_tag lor tr.n_recvs);
    tr.n_recvs <- tr.n_recvs + 1
  | _ ->
    let ea =
      match (eff.e_mem_reads, eff.e_mem_writes) with
      | a :: _, _ | [], a :: _ -> a.Vm.Event.a_addr
      | [], [] -> 0
    in
    record tr ((idx lsl 33) lor ea)

(* ------------------------------------------------------------------ *)
(* Paged byte sets (demanded / influenced memory)                      *)
(* ------------------------------------------------------------------ *)

(* Paged like {!Vm.Memory}: one [Bytes] flag per byte of each touched
   page, with a one-entry TLB and a one-entry negative cache for pages
   never set — the walk's working set is a handful of hot pages. *)
let page_bits = Vm.Memory.page_bits
let page_size = Vm.Memory.page_size
let page_mask = page_size - 1

type bytes_set = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable tlb_idx : int;
  mutable tlb : Bytes.t;
  mutable neg_idx : int;
}

let bs_create () =
  { pages = Hashtbl.create 16; tlb_idx = -1; tlb = Bytes.empty; neg_idx = -1 }

let bs_mem bs addr =
  let idx = addr lsr page_bits in
  if idx = bs.tlb_idx then Bytes.unsafe_get bs.tlb (addr land page_mask) <> '\000'
  else if idx = bs.neg_idx then false
  else
    match Hashtbl.find_opt bs.pages idx with
    | Some pg ->
      bs.tlb_idx <- idx;
      bs.tlb <- pg;
      Bytes.unsafe_get pg (addr land page_mask) <> '\000'
    | None ->
      bs.neg_idx <- idx;
      false

let bs_set bs addr v =
  let idx = addr lsr page_bits in
  if idx = bs.tlb_idx then Bytes.unsafe_set bs.tlb (addr land page_mask) v
  else
    match Hashtbl.find_opt bs.pages idx with
    | Some pg ->
      bs.tlb_idx <- idx;
      bs.tlb <- pg;
      Bytes.unsafe_set pg (addr land page_mask) v
    | None ->
      (* Clearing a byte of a page never set changes nothing. *)
      if v <> '\000' then begin
        let pg = Bytes.make page_size '\000' in
        Hashtbl.add bs.pages idx pg;
        if bs.neg_idx = idx then bs.neg_idx <- -1;
        bs.tlb_idx <- idx;
        bs.tlb <- pg;
        Bytes.unsafe_set pg (addr land page_mask) v
      end

let rec bs_any bs addr n = n > 0 && (bs_mem bs addr || bs_any bs (addr + 1) (n - 1))

let bs_fill bs addr n v =
  for a = addr to addr + n - 1 do
    bs_set bs a v
  done

(* The side records by index, and the one entry [e] points at, if any. *)
let side_records tr = Array.of_list (List.rev tr.recvs)

let side recvs e =
  if e land side_tag <> 0 then Some recvs.(e land low_mask) else None

(* ------------------------------------------------------------------ *)
(* Backward slicing                                                    *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_nodes : int;              (** dynamic instructions in the window *)
  s_slice_size : int;         (** dynamic instructions in the slice *)
  s_pcs : Int_set.t;          (** static instructions in the slice *)
  s_msgs : Int_set.t;         (** input messages the fault depends on *)
  s_fault_pc : int;
}

(* [init] plus the pcs of the code indices flagged in [seen]. *)
let pcs_of tr seen init =
  let acc = ref init in
  Bytes.iteri
    (fun idx b -> if b <> '\000' then acc := Int_set.add (Engine.pc tr.code idx) !acc)
    seen;
  !acc

(* The demand walk. [roots] is the demand left by the instruction the
   slice is taken from: its register/pseudo-location uses and memory
   bytes. [force_last] puts the final entry in the slice unconditionally
   (a clean end slices from the last retired instruction). *)
let backward tr ~fault_pc ~roots ~root_mem ~force_last : summary =
  let n = length tr in
  let recvs = side_records tr in
  let seen = Bytes.make (Array.length tr.info) '\000' in
  let mem = bs_create () in
  List.iter (fun (addr, len) -> bs_fill mem addr len '\001') root_mem;
  let demand = ref roots in
  let size = ref 0 in
  let msgs = ref Int_set.empty in
  for i = n - 1 downto 0 do
    let e = entry tr i in
    let idx = e lsr 33 in
    let inf = Array.unsafe_get tr.info idx in
    let d = defs inf in
    let acc = access inf in
    let ea = e land low_mask in
    let recv = side recvs e in
    if
      (force_last && i = n - 1)
      || d land !demand <> 0
      || (acc = acc_write && bs_any mem ea (access_size inf))
      || match recv with Some r -> bs_any mem r.r_buf r.r_len | None -> false
    then begin
      incr size;
      Bytes.unsafe_set seen idx '\001';
      demand := (!demand land lnot d) lor uses inf;
      if acc = acc_write then bs_fill mem ea (access_size inf) '\000'
      else if acc = acc_read then bs_fill mem ea (access_size inf) '\001';
      match recv with
      | Some r ->
        bs_fill mem r.r_buf r.r_len '\000';
        msgs := Int_set.add r.r_msg !msgs
      | None -> ()
    end
  done;
  {
    s_nodes = n;
    s_slice_size = !size;
    s_pcs = pcs_of tr seen (Int_set.singleton fault_pc);
    s_msgs = !msgs;
    s_fault_pc = fault_pc;
  }

(* The uses of the faulting instruction, which never retired (the fault
   pre-empted it), reconstructed from the machine state. *)
let fault_roots (proc : Osim.Process.t) =
  let cpu = proc.Osim.Process.cpu in
  let r x = 1 lsl Vm.Isa.reg_index x in
  let regs, mem =
    match Vm.Program.fetch cpu.Vm.Cpu.code cpu.Vm.Cpu.pc with
    | Some Vm.Isa.Ret ->
      (r Vm.Isa.SP, [ (Vm.Cpu.get_reg cpu Vm.Isa.SP, 4) ])
    | Some (Vm.Isa.CallInd x) -> (r x, [])
    | Some (Vm.Isa.Load (_, rs, _) | Vm.Isa.Loadb (_, rs, _)) -> (r rs, [])
    | Some (Vm.Isa.Store (rb, _, rs) | Vm.Isa.Storeb (rb, _, rs)) ->
      (r rb lor r rs, [])
    | Some (Vm.Isa.Bin (_, rd, Vm.Isa.Reg x)) -> (r rd lor r x, [])
    | Some (Vm.Isa.Bin (_, rd, _)) -> (r rd, [])
    | _ -> (0, [])
  in
  (regs lor branch_bit, mem)

type result = {
  sl_summary : summary;
  sl_instructions : int;
}

(** Does the slice contain (verify) an instruction another analysis
    blamed? The slice is the ground truth: a claim outside it is wrong. *)
let verifies (s : summary) pc = Int_set.mem pc s.s_pcs

(** A replay that keeps its trace for further queries (forward slices,
    per-message influence). *)
type session = {
  trace : t;
  outcome : Vm.Cpu.outcome;
  backward : summary;
}

(** Record the replay's trace on the {!Engine}, then slice backward from
    the fault (or from the final instruction if the replay ended
    cleanly). *)
let run_session ?(fuel = 20_000_000) (proc : Osim.Process.t) : session =
  let cpu = proc.Osim.Process.cpu in
  let tr = create cpu.Vm.Cpu.code in
  let outcome =
    Engine.run ~fuel
      {
        Engine.plans = Engine.plans tr.code (fun _ _ -> 1);
        (* The fast path: every instruction is recorded, with the engine's
           effective address. *)
        act = (fun _ ea idx -> record tr ((idx lsl 33) lor ea));
        on_effect = on_effect tr;
      }
      cpu
  in
  let roots, root_mem, force_last =
    match outcome with
    | Vm.Cpu.Faulted _ ->
      let roots, root_mem = fault_roots proc in
      (roots, root_mem, false)
    | Vm.Cpu.Halted | Vm.Cpu.Blocked | Vm.Cpu.Out_of_fuel -> (0, [], true)
  in
  {
    trace = tr;
    outcome;
    backward = backward tr ~fault_pc:cpu.Vm.Cpu.pc ~roots ~root_mem ~force_last;
  }

let run ?fuel (proc : Osim.Process.t) : result =
  let s = run_session ?fuel proc in
  { sl_summary = s.backward; sl_instructions = length s.trace }

(* ------------------------------------------------------------------ *)
(* Forward slicing                                                     *)
(* ------------------------------------------------------------------ *)

(** A forward slice: every dynamic instruction influenced by a starting
    set — e.g. everything a particular network input could have touched
    ("a forward slice from the exploit input would reveal all instructions
    and memory potentially tainted by it", Section 3.2). *)
type forward = {
  fw_size : int;          (** dynamic instructions influenced *)
  fw_pcs : Int_set.t;     (** static instructions influenced *)
}

(** Everything influenced by the given input message: the forward walk
    seeded at that message's receives. A location is influenced iff its
    last writer was; an instruction is influenced iff it is a seed or
    reads an influenced location (its dependences' last writers). *)
let forward_from_message (session : session) ~msg_id : forward =
  let tr = session.trace in
  let recvs = side_records tr in
  let seen = Bytes.make (Array.length tr.info) '\000' in
  let mem = bs_create () in
  let live = ref 0 in
  let size = ref 0 in
  for i = 0 to length tr - 1 do
    let e = entry tr i in
    let idx = e lsr 33 in
    let inf = Array.unsafe_get tr.info idx in
    let acc = access inf in
    let ea = e land low_mask in
    let recv = side recvs e in
    let influenced =
      (match recv with Some r -> r.r_msg = msg_id | None -> false)
      || uses inf land !live <> 0
      || (acc = acc_read && bs_any mem ea (access_size inf))
    in
    let v = if influenced then '\001' else '\000' in
    if influenced then begin
      incr size;
      Bytes.unsafe_set seen idx '\001';
      live := !live lor defs inf
    end
    else live := !live land lnot (defs inf);
    if acc = acc_write then bs_fill mem ea (access_size inf) v;
    match recv with Some r -> bs_fill mem r.r_buf r.r_len v | None -> ()
  done;
  { fw_size = !size; fw_pcs = pcs_of tr seen Int_set.empty }
