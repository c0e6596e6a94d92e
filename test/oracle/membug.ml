(* The original memory-bug detector: one global post-hook over the
   generic instrumented path, live and freed chunks in hashtables scanned
   on every heap store. Same findings, same order, same instruction count
   as [Sweeper.Membug]; kept as the differential-testing reference. *)

type finding = Sweeper.Membug.finding =
  | Stack_smash of { store_pc : int; slot_addr : int }
  | Heap_overflow of { store_pc : int; addr : int }
  | Double_free of { call_pc : int; ptr : int }
  | Dangling_write of { store_pc : int; addr : int }

type report = Sweeper.Membug.report = {
  m_findings : finding list;
  m_fault : Vm.Event.fault option;
  m_instructions : int;
}

type state = {
  proc : Osim.Process.t;
  mutable findings : finding list;
  reported : (int * int, unit) Hashtbl.t;
      (** (kind tag, pc) pairs already reported — one finding per site *)
  (* Live return-address slots, keyed by address. Address keying (rather
     than a LIFO) self-corrects when the detector attaches mid-execution:
     a returning frame always clears exactly its own slot. *)
  ret_slots : (int, unit) Hashtbl.t;
  (* Live and freed chunks (user ptr -> size / unit). *)
  live : (int, int) Hashtbl.t;
  freed : (int, unit) Hashtbl.t;
  free_entry : int;  (** address of libc [free] *)
  mutable icount : int;
}

(* Does a write of [size] bytes at [addr] overlap any live ret slot? *)
let hit_slot st addr size =
  let rec probe s =
    if s >= addr + size + 3 then None
    else if Hashtbl.mem st.ret_slots s && addr < s + 4 && addr + size > s then
      Some s
    else probe (s + 1)
  in
  probe (addr - 3)

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
      Hashtbl.replace st.ret_slots (fp + 4) ();
      walk (Vm.Memory.load_word p.mem fp) (n + 1)
    end
  in
  walk (Vm.Cpu.get_reg p.cpu Vm.Isa.FP) 0;
  (* Pre-existing buffers from the heap image. *)
  List.iter
    (fun (c : Vm.Alloc.chunk) ->
      match c.c_state with
      | Vm.Alloc.Chunk_alloc -> Hashtbl.replace st.live c.c_ptr c.c_size
      | Vm.Alloc.Chunk_freed -> Hashtbl.replace st.freed c.c_ptr ()
      | Vm.Alloc.Chunk_corrupt _ -> ())
    (Vm.Alloc.chunks p.mem p.layout)

let heap_region st addr =
  addr >= st.proc.Osim.Process.layout.Vm.Layout.heap_base
  && addr < st.proc.Osim.Process.layout.Vm.Layout.heap_max

let in_live_chunk st addr =
  Hashtbl.fold
    (fun ptr size acc -> acc || (addr >= ptr && addr < ptr + size))
    st.live false

let in_freed_chunk st addr =
  Hashtbl.fold (fun ptr () acc -> acc || (addr >= ptr - 8 && addr < ptr + 8)) st.freed false

(* Allocator bookkeeping words live at the start of the heap; stores there
   from the libc wrappers are legitimate. *)
let is_alloc_bookkeeping st addr =
  addr < Vm.Alloc.arena_start st.proc.Osim.Process.layout

(* One finding per (bug kind, instruction): the same overflowing store
   fires once, not once per byte. *)
let report st kind_tag pc f =
  if not (Hashtbl.mem st.reported (kind_tag, pc)) then begin
    Hashtbl.replace st.reported (kind_tag, pc) ();
    st.findings <- f :: st.findings
  end

let on_effect st (eff : Vm.Event.effect_) =
  st.icount <- st.icount + 1;
  (* 1. Stack smashing: a store (not the call's own push) into a live
     return-address slot. *)
  (match eff.e_ctrl with
  | Vm.Event.Call_to -> ()
  | _ ->
    List.iter
      (fun (a : Vm.Event.access) ->
        match hit_slot st a.a_addr a.a_size with
        | Some slot ->
          report st 0 eff.e_pc
            (Stack_smash { store_pc = eff.e_pc; slot_addr = slot })
        | None -> ())
      eff.e_mem_writes);
  (* 2. Heap overflow / dangling writes: stores into the heap that land in
     no live chunk. *)
  (match eff.e_instr with
  | Vm.Isa.Store _ | Vm.Isa.Storeb _ ->
    List.iter
      (fun (a : Vm.Event.access) ->
        if heap_region st a.a_addr && not (is_alloc_bookkeeping st a.a_addr)
           && not (in_live_chunk st a.a_addr)
        then
          if in_freed_chunk st a.a_addr then
            report st 1 eff.e_pc
              (Dangling_write { store_pc = eff.e_pc; addr = a.a_addr })
          else
            report st 2 eff.e_pc
              (Heap_overflow { store_pc = eff.e_pc; addr = a.a_addr }))
      eff.e_mem_writes
  | _ -> ());
  (* 3. Shadow ret-slot maintenance + double-free checks at calls. *)
  (match eff.e_ctrl with
  | Vm.Event.Call_to ->
    let target = eff.e_ctrl_a in
    let new_sp =
      match Vm.Event.written_value eff Vm.Isa.SP with
      | Some v -> v
      | None -> Vm.Cpu.get_reg st.proc.Osim.Process.cpu Vm.Isa.SP
    in
    Hashtbl.replace st.ret_slots new_sp ();
    if target = st.free_entry then begin
      (* arg0 sits just above the pushed return address *)
      let ptr = Vm.Memory.load_word st.proc.Osim.Process.mem (new_sp + 4) in
      if ptr <> 0 && Hashtbl.mem st.freed ptr then
        report st 3 eff.e_pc (Double_free { call_pc = eff.e_pc; ptr })
    end
  | Vm.Event.Ret_to ->
    (* The slot being consumed is the address the return popped from. *)
    List.iter
      (fun (a : Vm.Event.access) -> Hashtbl.remove st.ret_slots a.a_addr)
      eff.e_mem_reads
  | _ -> ());
  (* 4. Allocation tracking from syscall effects. *)
  match eff.e_sys with
  | Vm.Event.Io_alloc { ptr; size } ->
    Hashtbl.replace st.live ptr size;
    Hashtbl.remove st.freed ptr
  | Vm.Event.Io_free { ptr; status = `Ok } ->
    Hashtbl.remove st.live ptr;
    Hashtbl.replace st.freed ptr ()
  | _ -> ()

(** Attach the detector to [proc], run until the process faults, blocks or
    halts (or [fuel] runs out), and detach. Call after rolling back to a
    checkpoint with the network log in replay mode. *)
let run ?(fuel = 20_000_000) (proc : Osim.Process.t) : report =
  let st =
    {
      proc;
      findings = [];
      reported = Hashtbl.create 16;
      ret_slots = Hashtbl.create 64;
      live = Hashtbl.create 64;
      freed = Hashtbl.create 64;
      free_entry = Vm.Asm.symbol proc.lib_image "free";
      icount = 0;
    }
  in
  seed_from_image st;
  let hook = Vm.Cpu.add_post_hook proc.cpu (on_effect st) in
  let outcome = Vm.Cpu.run ~fuel proc.cpu in
  Vm.Cpu.remove_hook proc.cpu hook;
  let fault = match outcome with Vm.Cpu.Faulted f -> Some f | _ -> None in
  {
    m_findings = List.rev st.findings;
    m_fault = fault;
    m_instructions = st.icount;
  }
