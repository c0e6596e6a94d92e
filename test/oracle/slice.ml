(* The original dynamic slicer: during replay every executed instruction
   becomes a node of a dependence graph (data dependences through the last
   writer of each register and memory byte, flag dependences through the
   last comparison, control dependences through the last branch), every
   instruction on the generic instrumented path. Backward slices are
   reachability from the fault's dependences; forward slices walk the same
   graph the other way. Kept as the differential-testing reference for
   [Sweeper.Slice]'s trace-and-demand engine. *)

module Int_set = Sweeper.Slice.Int_set

(* The last-writer map is paged like {!Vm.Memory} (and {!Taint}'s shadow):
   one [int array] of last-writer sequence numbers per touched 4 KiB page,
   -1 meaning "never written". A replay's working set is a handful of hot
   pages, so a one-entry TLB plus a one-entry negative cache (for reads of
   never-written pages — code, library data) keeps the per-byte cost to an
   array index instead of a hashtable probe. *)
let page_bits = Vm.Memory.page_bits
let page_size = Vm.Memory.page_size
let page_mask = page_size - 1
let no_page : int array = [||]

type node = {
  n_seq : int;   (** dynamic instruction number (dense, from 0) *)
  n_pc : int;
  n_deps : int list;  (** seq numbers this node depends on *)
  n_src_msg : int option;  (** message id for network-input source nodes *)
}

type t = {
  proc : Osim.Process.t;
  mutable nodes : node array;
  mutable count : int;
  last_reg : int array;              (** reg -> seq of last writer *)
  last_mem : (int, int array) Hashtbl.t;
      (** page index -> per-byte seq of last writer (-1 = never) *)
  mutable lm_tlb_idx : int;          (** page index cached in [lm_tlb] *)
  mutable lm_tlb : int array;
  mutable lm_neg_idx : int;          (** page index known absent *)
  mutable last_flags : int;
  mutable last_branch : int;
}

let create proc =
  {
    proc;
    nodes = Array.make 4096 { n_seq = 0; n_pc = 0; n_deps = []; n_src_msg = None };
    count = 0;
    last_reg = Array.make Vm.Isa.num_regs (-1);
    last_mem = Hashtbl.create 64;
    lm_tlb_idx = -1;
    lm_tlb = no_page;
    lm_neg_idx = -1;
    last_flags = -1;
    last_branch = -1;
  }

(* Write side: the page for [addr], materialized on first write. *)
let lm_page st addr =
  let idx = addr lsr page_bits in
  if idx = st.lm_tlb_idx then st.lm_tlb
  else begin
    let pg =
      match Hashtbl.find_opt st.last_mem idx with
      | Some pg -> pg
      | None ->
        let pg = Array.make page_size (-1) in
        Hashtbl.add st.last_mem idx pg;
        pg
    in
    if st.lm_neg_idx = idx then st.lm_neg_idx <- -1;
    st.lm_tlb_idx <- idx;
    st.lm_tlb <- pg;
    pg
  end

(* Read side: seq of the last writer of [addr], -1 when never written. *)
let lm_get st addr =
  let idx = addr lsr page_bits in
  if idx = st.lm_tlb_idx then Array.unsafe_get st.lm_tlb (addr land page_mask)
  else if idx = st.lm_neg_idx then -1
  else
    match Hashtbl.find_opt st.last_mem idx with
    | None ->
      st.lm_neg_idx <- idx;
      -1
    | Some pg ->
      st.lm_tlb_idx <- idx;
      st.lm_tlb <- pg;
      Array.unsafe_get pg (addr land page_mask)

let lm_set st addr seq =
  Array.unsafe_set (lm_page st addr) (addr land page_mask) seq

(* Range fill (recv buffers): whole spans per page via [Array.fill]. *)
let lm_fill st addr len seq =
  let a = ref addr and remaining = ref len in
  while !remaining > 0 do
    let pg = lm_page st !a in
    let off = !a land page_mask in
    let n = min !remaining (page_size - off) in
    Array.fill pg off n seq;
    a := !a + n;
    remaining := !remaining - n
  done

let push st node =
  if st.count = Array.length st.nodes then begin
    let bigger = Array.make (2 * st.count) node in
    Array.blit st.nodes 0 bigger 0 st.count;
    st.nodes <- bigger
  end;
  st.nodes.(st.count) <- node;
  st.count <- st.count + 1

(* Dependences of an effect against the current last-writer maps. *)
let deps_of st (eff : Vm.Event.effect_) =
  let acc = ref [] in
  let add s = if s >= 0 then acc := s :: !acc in
  List.iter (fun r -> add st.last_reg.(Vm.Isa.reg_index r)) eff.e_regs_read;
  List.iter
    (fun (a : Vm.Event.access) ->
      for i = 0 to a.a_size - 1 do
        add (lm_get st (a.a_addr + i))
      done)
    eff.e_mem_reads;
  if eff.e_flags_read then add st.last_flags;
  add st.last_branch;
  List.sort_uniq compare !acc

let on_effect st (eff : Vm.Event.effect_) =
  let seq = st.count in
  let deps = deps_of st eff in
  let src_msg =
    match eff.e_sys with
    | Vm.Event.Io_recv { msg_id; _ } -> Some msg_id
    | _ -> None
  in
  push st { n_seq = seq; n_pc = eff.e_pc; n_deps = deps; n_src_msg = src_msg };
  (* Update writer maps. *)
  if eff.e_rw_count >= 1 then begin
    st.last_reg.(Vm.Isa.reg_index eff.e_rw0) <- seq;
    if eff.e_rw_count >= 2 then st.last_reg.(Vm.Isa.reg_index eff.e_rw1) <- seq
  end;
  List.iter
    (fun (a : Vm.Event.access) ->
      for i = 0 to a.a_size - 1 do
        lm_set st (a.a_addr + i) seq
      done)
    eff.e_mem_writes;
  (match eff.e_sys with
  | Vm.Event.Io_recv { buf; len; _ } -> lm_fill st buf len seq
  | _ -> ());
  if eff.e_flags_written then st.last_flags <- seq;
  match eff.e_ctrl with
  | Vm.Event.Jump -> (
    (* Conditional jumps (and taken unconditional ones reached through a
       condition) are control-dependence anchors. *)
    match eff.e_instr with
    | Vm.Isa.Jcc _ -> st.last_branch <- seq
    | _ -> ())
  | Vm.Event.Ret_to | Vm.Event.Call_to -> st.last_branch <- seq
  | Vm.Event.Next -> (
    match eff.e_instr with
    | Vm.Isa.Jcc _ -> st.last_branch <- seq  (* not-taken branch still governs *)
    | _ -> ())
  | Vm.Event.Sys | Vm.Event.Stop -> ()

(* Dependences of the *faulting* instruction, which never became a node
   because the fault pre-empted execution. Reconstructed from the machine
   state. *)
let fault_deps st =
  let cpu = st.proc.Osim.Process.cpu in
  let pc = cpu.Vm.Cpu.pc in
  let acc = ref [] in
  let add s = if s >= 0 then acc := s :: !acc in
  let add_reg r = add st.last_reg.(Vm.Isa.reg_index r) in
  let add_mem addr size =
    for i = 0 to size - 1 do
      add (lm_get st (addr + i))
    done
  in
  (match Vm.Program.fetch cpu.Vm.Cpu.code pc with
  | Some (Vm.Isa.Ret) ->
    add_reg Vm.Isa.SP;
    add_mem (Vm.Cpu.get_reg cpu Vm.Isa.SP) 4
  | Some (Vm.Isa.CallInd r) -> add_reg r
  | Some (Vm.Isa.Load (_, rs, _) | Vm.Isa.Loadb (_, rs, _)) -> add_reg rs
  | Some (Vm.Isa.Store (rb, _, rs) | Vm.Isa.Storeb (rb, _, rs)) ->
    add_reg rb;
    add_reg rs
  | Some (Vm.Isa.Bin (_, rd, src)) -> (
    add_reg rd;
    match src with Vm.Isa.Reg r -> add_reg r | _ -> ())
  | _ -> ());
  add st.last_branch;
  (pc, List.sort_uniq compare !acc)

type summary = Sweeper.Slice.summary = {
  s_nodes : int;
  s_slice_size : int;
  s_pcs : Int_set.t;
  s_msgs : Int_set.t;
  s_fault_pc : int;
}

(** Walk backward from the given roots. *)
let backward st ~fault_pc ~roots : summary =
  let in_slice = Array.make (max 1 st.count) false in
  let pcs = ref Int_set.empty in
  let msgs = ref Int_set.empty in
  let rec visit s =
    if s >= 0 && s < st.count && not (in_slice.(s)) then begin
      in_slice.(s) <- true;
      let n = st.nodes.(s) in
      pcs := Int_set.add n.n_pc !pcs;
      (match n.n_src_msg with
      | Some m -> msgs := Int_set.add m !msgs
      | None -> ());
      List.iter visit n.n_deps
    end
  in
  List.iter visit roots;
  let size = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in_slice in
  {
    s_nodes = st.count;
    s_slice_size = size;
    s_pcs = Int_set.add fault_pc !pcs;
    s_msgs = !msgs;
    s_fault_pc = fault_pc;
  }

type result = Sweeper.Slice.result = {
  sl_summary : summary;
  sl_instructions : int;
}

(** Attach the graph collector, run the replay, slice backward from the
    fault (or from the final instruction if the replay ended cleanly). *)
let run ?(fuel = 20_000_000) (proc : Osim.Process.t) : result =
  let st = create proc in
  let hook = Vm.Cpu.add_post_hook proc.cpu (on_effect st) in
  let outcome = Vm.Cpu.run ~fuel proc.cpu in
  Vm.Cpu.remove_hook proc.cpu hook;
  let fault_pc, roots =
    match outcome with
    | Vm.Cpu.Faulted _ -> fault_deps st
    | _ ->
      let pc = proc.Osim.Process.cpu.Vm.Cpu.pc in
      (pc, if st.count = 0 then [] else [ st.count - 1 ])
  in
  { sl_summary = backward st ~fault_pc ~roots; sl_instructions = st.count }

(* ------------------------------------------------------------------ *)
(* Forward slicing                                                     *)
(* ------------------------------------------------------------------ *)

(** A forward slice: every dynamic instruction influenced by a starting
    set — e.g. everything a particular network input could have touched
    ("a forward slice from the exploit input would reveal all instructions
    and memory potentially tainted by it", Section 3.2). Computed from the
    same dependence graph, walked in the other direction. *)
type forward = Sweeper.Slice.forward = {
  fw_size : int;
  fw_pcs : Int_set.t;
}

(* Walk the graph forward from the given seeds. The graph stores backward
   edges, so build the successor relation once. *)
let forward_from st ~seeds : forward =
  let n = st.count in
  let succs = Array.make (max 1 n) [] in
  for s = 0 to n - 1 do
    List.iter
      (fun d -> if d >= 0 && d < n then succs.(d) <- s :: succs.(d))
      st.nodes.(s).n_deps
  done;
  let influenced = Array.make (max 1 n) false in
  let pcs = ref Int_set.empty in
  let rec visit s =
    if s >= 0 && s < n && not influenced.(s) then begin
      influenced.(s) <- true;
      pcs := Int_set.add st.nodes.(s).n_pc !pcs;
      List.iter visit succs.(s)
    end
  in
  List.iter visit seeds;
  let size = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 influenced in
  { fw_size = size; fw_pcs = !pcs }

(** Result of a replay that keeps the dependence graph for further queries
    (forward slices, per-message influence). *)
type session = {
  graph : t;
  outcome : Vm.Cpu.outcome;
  backward : summary;
}

(** Like {!run}, but retain the graph. *)
let run_session ?(fuel = 20_000_000) (proc : Osim.Process.t) : session =
  let st = create proc in
  let hook = Vm.Cpu.add_post_hook proc.cpu (on_effect st) in
  let outcome = Vm.Cpu.run ~fuel proc.cpu in
  Vm.Cpu.remove_hook proc.cpu hook;
  let fault_pc, roots =
    match outcome with
    | Vm.Cpu.Faulted _ -> fault_deps st
    | _ ->
      let pc = proc.Osim.Process.cpu.Vm.Cpu.pc in
      (pc, if st.count = 0 then [] else [ st.count - 1 ])
  in
  { graph = st; outcome; backward = backward st ~fault_pc ~roots }

(** Everything influenced by the given input message: the forward slice
    seeded at that message's receive event. *)
let forward_from_message (session : session) ~msg_id : forward =
  let seeds = ref [] in
  for s = 0 to session.graph.count - 1 do
    if session.graph.nodes.(s).n_src_msg = Some msg_id then seeds := s :: !seeds
  done;
  forward_from session.graph ~seeds:!seeds
