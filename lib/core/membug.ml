(** Dynamic memory-bug detection, attached during sandboxed replay.

    Detects the three bug classes of Section 3.2 — stack smashing (writes
    to saved return-address slots, with pre-existing frames inferred from
    the frame pointer), heap overflow (stores outside any live chunk, with
    pre-checkpoint buffers inferred from the heap image), and double frees
    (calls to [free] on an already-freed chunk) — and attributes each to
    the offending instruction, which is what the refined VSEFs are built
    from. *)

type finding =
  | Stack_smash of { store_pc : int; slot_addr : int }
  | Heap_overflow of { store_pc : int; addr : int }
  | Double_free of { call_pc : int; ptr : int }
  | Dangling_write of { store_pc : int; addr : int }

type report = {
  m_findings : finding list;  (** in detection order *)
  m_fault : Vm.Event.fault option;  (** the replayed crash, if it recurred *)
  m_instructions : int;  (** dynamic instructions monitored *)
}

let finding_pc = function
  | Stack_smash { store_pc; _ }
  | Heap_overflow { store_pc; _ }
  | Dangling_write { store_pc; _ } -> store_pc
  | Double_free { call_pc; _ } -> call_pc

let finding_to_string ~describe = function
  | Stack_smash { store_pc; slot_addr } ->
    Printf.sprintf "Stack smashing by %s (return-address slot 0x%x)"
      (describe store_pc) slot_addr
  | Heap_overflow { store_pc; addr } ->
    Printf.sprintf "Heap buffer overflow at %s (store to 0x%x)"
      (describe store_pc) addr
  | Double_free { call_pc; ptr } ->
    Printf.sprintf "Double free by %s (chunk 0x%x)" (describe call_pc) ptr
  | Dangling_write { store_pc; addr } ->
    Printf.sprintf "Write to freed chunk by %s (0x%x)" (describe store_pc) addr

(** Derive the refined VSEF a finding justifies. [proc] supplies the image
    bases for making the check relocatable. *)
let vsef_of_finding ~app ~proc = function
  | Stack_smash { store_pc; _ } ->
    Some
      {
        Vsef.v_name = "store-guard";
        v_app = app;
        v_check = Vsef.Store_guard { store = Vsef.loc_of_pc proc store_pc };
        v_origin = Vsef.From_membug;
      }
  | Heap_overflow { store_pc; _ } | Dangling_write { store_pc; _ } ->
    Some
      {
        Vsef.v_name = "heap-bounds-refined";
        v_app = app;
        v_check =
          Vsef.Heap_bounds
            { store = Vsef.loc_of_pc proc store_pc; caller = None;
              caller_range = None };
        v_origin = Vsef.From_membug;
      }
  | Double_free { call_pc; _ } ->
    Some
      {
        Vsef.v_name = "double-free-site";
        v_app = app;
        v_check = Vsef.Double_free_site { call = Vsef.loc_of_pc proc call_pc };
        v_origin = Vsef.From_membug;
      }

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type state = {
  proc : Osim.Process.t;
  code : Vm.Program.t;
  mutable findings : finding list;
  reported : Bytes.t;
      (** per code index, one bit per finding kind already reported there *)
  (* Live return-address slots, keyed by address. Address keying (rather
     than a LIFO) self-corrects when the detector attaches mid-execution:
     a returning frame always clears exactly its own slot. Slots inside
     the stack region — every push lands there unless SP is corrupted —
     are flags in [slot_bits] (byte [i] is address [slot_lo + i]); any
     other slot goes to [slot_other]. *)
  slot_lo : int;
  slot_bits : Bytes.t;
  slot_other : (int, unit) Hashtbl.t;
  mutable live : int Int_map.t;  (** live chunks: user ptr -> size *)
  mutable live_nested : bool;
      (** some live chunk ever started inside another (only a corrupted
          allocator does that); [in_live_chunk] then scans every chunk *)
  mutable freed : Int_set.t;  (** freed chunks' user ptrs *)
  free_entry : int;  (** address of libc [free] *)
}

let set_slot st s live =
  let i = s - st.slot_lo in
  if i >= 0 && i < Bytes.length st.slot_bits then
    Bytes.unsafe_set st.slot_bits i (if live then '\001' else '\000')
  else if live then Hashtbl.replace st.slot_other s ()
  else Hashtbl.remove st.slot_other s

let is_slot st s =
  let i = s - st.slot_lo in
  if i >= 0 && i < Bytes.length st.slot_bits then
    Bytes.unsafe_get st.slot_bits i <> '\000'
  else Hashtbl.length st.slot_other > 0 && Hashtbl.mem st.slot_other s

(* Does a write of [size] bytes at [addr] overlap a live return-address
   slot? Slots are plain (not necessarily aligned) addresses, and a
   4-byte slot s overlaps [addr, addr+size) iff addr-3 <= s < addr+size,
   so probing those few addresses keeps the check O(1) per store. The
   lowest overlapping slot is the one reported. *)
let hit_slot st addr size =
  let rec probe s =
    if s >= addr + size then None
    else if is_slot st s then Some s
    else probe (s + 1)
  in
  probe (addr - 3)

(* Chunks are found by an ordered lookup: the chunk with the greatest
   start at or below [addr] is the only candidate, provided no chunk
   starts inside another — which [add_live] checks on every insertion
   (the predecessor must end at or before the new start, and the
   successor must start at or after the new end). *)
let add_live st ptr size =
  let live = Int_map.add ptr size st.live in
  (match Int_map.find_last_opt (fun p -> p < ptr) live with
  | Some (p, sz) when p + sz > ptr -> st.live_nested <- true
  | _ -> ());
  (match Int_map.find_first_opt (fun p -> p > ptr) live with
  | Some (p, _) when ptr + size > p -> st.live_nested <- true
  | _ -> ());
  st.live <- live

let in_live_chunk st addr =
  if st.live_nested then
    Int_map.exists (fun ptr size -> addr >= ptr && addr < ptr + size) st.live
  else
    match Int_map.find_last_opt (fun ptr -> ptr <= addr) st.live with
    | Some (ptr, size) -> addr < ptr + size
    | None -> false

(* Within 8 bytes of a freed chunk's user pointer. All windows have the
   same width, so the greatest pointer at or below [addr + 8] is the only
   candidate. *)
let in_freed_chunk st addr =
  match Int_set.find_last_opt (fun ptr -> ptr - 8 <= addr) st.freed with
  | Some ptr -> addr < ptr + 8
  | None -> false

let seed_from_image st =
  (* Pre-existing frames from the frame-pointer chain. *)
  let p = st.proc in
  let layout = p.layout in
  let rec walk fp n =
    if
      n > 64
      || fp < layout.Vm.Layout.stack_limit
      || fp >= layout.Vm.Layout.stack_top
    then ()
    else begin
      set_slot st (fp + 4) true;
      walk (Vm.Memory.load_word p.mem fp) (n + 1)
    end
  in
  walk (Vm.Cpu.get_reg p.cpu Vm.Isa.FP) 0;
  (* Pre-existing buffers from the heap image. *)
  List.iter
    (fun (c : Vm.Alloc.chunk) ->
      match c.c_state with
      | Vm.Alloc.Chunk_alloc -> add_live st c.c_ptr c.c_size
      | Vm.Alloc.Chunk_freed -> st.freed <- Int_set.add c.c_ptr st.freed
      | Vm.Alloc.Chunk_corrupt _ -> ())
    (Vm.Alloc.chunks p.mem p.layout)

let heap_region st addr =
  addr >= st.proc.Osim.Process.layout.Vm.Layout.heap_base
  && addr < st.proc.Osim.Process.layout.Vm.Layout.heap_max

(* Allocator bookkeeping words live at the start of the heap; stores there
   from the libc wrappers are legitimate. *)
let is_alloc_bookkeeping st addr =
  addr < Vm.Alloc.arena_start st.proc.Osim.Process.layout

(* One finding per (bug kind, instruction): the same overflowing store
   fires once, not once per byte. [reported] holds one bit per kind for
   each code index; the checks below take the code index and build a
   finding only when the (kind, instruction) pair is new. *)
let k_smash = 0
let k_dangling = 1
let k_overflow = 2
let k_double_free = 3

let is_new st kind idx =
  Char.code (Bytes.unsafe_get st.reported idx) land (1 lsl kind) = 0

let report st kind idx f =
  let b = Char.code (Bytes.unsafe_get st.reported idx) in
  Bytes.unsafe_set st.reported idx (Char.chr (b lor (1 lsl kind)));
  st.findings <- f :: st.findings

let pc st idx = Engine.pc st.code idx

(* 1. Stack smashing: a store or push (not a call's own push) into a live
   return-address slot. *)
let check_smash st idx addr size =
  match hit_slot st addr size with
  | Some slot when is_new st k_smash idx ->
    report st k_smash idx (Stack_smash { store_pc = pc st idx; slot_addr = slot })
  | _ -> ()

(* 2. Heap overflow / dangling writes: stores into the heap that land in
   no live chunk. *)
let check_heap st idx addr =
  if
    heap_region st addr
    && (not (is_alloc_bookkeeping st addr))
    && not (in_live_chunk st addr)
  then
    let kind = if in_freed_chunk st addr then k_dangling else k_overflow in
    if is_new st kind idx then
      report st kind idx
        (if kind = k_dangling then Dangling_write { store_pc = pc st idx; addr }
         else Heap_overflow { store_pc = pc st idx; addr })

let check_store st idx addr size =
  check_smash st idx addr size;
  check_heap st idx addr

(* 3. Shadow ret-slot maintenance + double-free checks at calls: [new_sp]
   is the pushed return-address slot, [target] the callee. *)
let on_call st idx ~new_sp ~target =
  set_slot st new_sp true;
  if target = st.free_entry then begin
    (* arg0 sits just above the pushed return address *)
    let ptr = Vm.Memory.load_word st.proc.Osim.Process.mem (new_sp + 4) in
    if ptr <> 0 && Int_set.mem ptr st.freed && is_new st k_double_free idx then
      report st k_double_free idx (Double_free { call_pc = pc st idx; ptr })
  end

(* The instrumented path: syscalls and declined instructions, or every
   instruction when foreign hooks force the hooked interpreter. *)
let on_effect st (eff : Vm.Event.effect_) =
  let idx = Engine.index st.code eff.e_pc in
  (match eff.e_ctrl with
  | Vm.Event.Call_to -> ()
  | _ ->
    List.iter
      (fun (a : Vm.Event.access) -> check_smash st idx a.a_addr a.a_size)
      eff.e_mem_writes);
  (match eff.e_instr with
  | Vm.Isa.Store _ | Vm.Isa.Storeb _ ->
    List.iter
      (fun (a : Vm.Event.access) -> check_heap st idx a.a_addr)
      eff.e_mem_writes
  | _ -> ());
  (match eff.e_ctrl with
  | Vm.Event.Call_to ->
    let new_sp =
      match Vm.Event.written_value eff Vm.Isa.SP with
      | Some v -> v
      | None -> Vm.Cpu.get_reg st.proc.Osim.Process.cpu Vm.Isa.SP
    in
    on_call st idx ~new_sp ~target:eff.e_ctrl_a
  | Vm.Event.Ret_to ->
    (* The slot being consumed is the address the return popped from. *)
    List.iter
      (fun (a : Vm.Event.access) -> set_slot st a.a_addr false)
      eff.e_mem_reads
  | _ -> ());
  (* 4. Allocation tracking from syscall effects. *)
  match eff.e_sys with
  | Vm.Event.Io_alloc { ptr; size } ->
    add_live st ptr size;
    st.freed <- Int_set.remove ptr st.freed
  | Vm.Event.Io_free { ptr; status = `Ok } ->
    st.live <- Int_map.remove ptr st.live;
    st.freed <- Int_set.add ptr st.freed
  | _ -> ()

(* The fast path: membug acts only at stores, pushes, calls and returns,
   with the engine's effective address — the written word, the pushed
   slot, or the popped return-address slot. A call has retired, so the
   pc is its target. *)
let plan_of_instr _ (i : Vm.Isa.instr) =
  match i with
  | Store _ -> 1
  | Storeb _ -> 2
  | Push _ -> 3
  | Call _ | CallInd _ -> 4
  | Ret -> 5
  | Mov _ | Bin _ | Not _ | Neg _ | Load _ | Loadb _ | Pop _ | Cmp _ | Jmp _
  | Jcc _ | Syscall _ | Halt | Nop ->
    0

let act st =
  let cpu = st.proc.Osim.Process.cpu in
  fun p ea idx ->
    match p land 7 with
    | 1 (* k_store *) -> check_store st idx ea 4
    | 2 (* k_storeb *) -> check_store st idx ea 1
    | 3 (* k_push *) -> check_smash st idx ea 4
    | 4 (* k_call *) ->
      on_call st idx ~new_sp:ea ~target:cpu.Vm.Cpu.pc
    | _ (* k_ret *) -> set_slot st ea false

(** Replay [proc] on the {!Engine} with the detector attached, until the
    process faults, blocks or halts (or [fuel] runs out). Call after
    rolling back to a checkpoint with the network log in replay mode. *)
let run ?(fuel = 20_000_000) (proc : Osim.Process.t) : report =
  let cpu = proc.Osim.Process.cpu in
  let code = cpu.Vm.Cpu.code in
  let st =
    {
      proc;
      code;
      findings = [];
      reported = Bytes.make (Vm.Program.length code) '\000';
      slot_lo = proc.layout.Vm.Layout.stack_limit;
      slot_bits =
        Bytes.make
          (proc.layout.Vm.Layout.stack_top - proc.layout.Vm.Layout.stack_limit)
          '\000';
      slot_other = Hashtbl.create 8;
      live = Int_map.empty;
      live_nested = false;
      freed = Int_set.empty;
      free_entry = Vm.Asm.symbol proc.lib_image "free";
    }
  in
  seed_from_image st;
  let before = cpu.Vm.Cpu.icount in
  let outcome =
    Engine.run ~fuel
      {
        Engine.plans = Engine.plans code plan_of_instr;
        act = act st;
        on_effect = on_effect st;
      }
      cpu
  in
  let fault = match outcome with Vm.Cpu.Faulted f -> Some f | _ -> None in
  {
    m_findings = List.rev st.findings;
    m_fault = fault;
    m_instructions = cpu.Vm.Cpu.icount - before;
  }
