(** Control-flow graph recovery over decoded {!Vm.Program} segments.

    Blocks are maximal straight-line runs of instructions: a block ends at
    a control transfer ([Jmp]/[Jcc]/[Call]/[CallInd]/[Ret]/[Halt]) or just
    before an instruction some branch targets. Branch targets are taken
    from the decoded instruction stream — loaded programs carry absolute
    [Addr] targets, so recovery needs no relocation pass.

    Indirect calls, returns, and the (never-loaded, but representable)
    unresolved [Lbl] targets get a conservative edge to a single pseudo
    "unknown" sink node: the graph never claims to know where they go.
    [Call] additionally gets a fallthrough edge to its return site so
    intraprocedural analyses see the post-call continuation. A direct
    branch to an address outside every segment gets no edge at all — the
    CPU turns that into an [Exec_violation] before any successor runs. *)

type edge_kind =
  | Fallthrough  (** straight-line successor (incl. a call's return site) *)
  | Jump  (** unconditional direct jump *)
  | Branch  (** taken edge of a conditional branch *)
  | Call  (** direct call to the callee's entry block *)
  | Unknown  (** conservative edge into the unknown sink *)

type block = {
  b_id : int;
  b_pc : int;  (** address of the first instruction; [-1] for the sink *)
  b_instrs : (int * Vm.Isa.instr) array;  (** (pc, instruction) pairs *)
  mutable b_succs : (int * edge_kind) list;
  mutable b_preds : int list;
}

type t = {
  c_blocks : block array;
  c_unknown : int option;  (** id of the unknown sink, when one exists *)
  c_entries : int list;  (** ids of blocks starting at a segment base *)
}

let blocks t = t.c_blocks
let unknown t = t.c_unknown

(** [(entry_pc, length)] of every ordinary block, ascending pc. The
    unknown sink (the conservative target of indirect control, [b_pc] =
    [-1], no instructions) is excluded: it names no code range, so there
    is nothing for the VM's block-superinstruction tier to compile —
    indirect transfers resolve at run time and land on whichever real
    block (or fault) the target address denotes. *)
let block_bounds t =
  let bs = t.c_blocks in
  let n =
    match t.c_unknown with
    | Some _ -> Array.length bs - 1
    | None -> Array.length bs
  in
  Array.init n (fun i -> (bs.(i).b_pc, Array.length bs.(i).b_instrs))
let is_entry t (b : block) = List.mem b.b_id t.c_entries
let succs (b : block) = List.map fst b.b_succs
let preds (b : block) = b.b_preds

(** The block whose instruction range contains [pc], if any. *)
let block_at t pc =
  let bs = t.c_blocks in
  let contains b =
    b.b_pc >= 0
    && pc >= b.b_pc
    && pc < b.b_pc + (Array.length b.b_instrs * Vm.Isa.instr_size)
  in
  let rec search lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let b = bs.(mid) in
      if contains b then Some b
      else if b.b_pc = -1 || pc < b.b_pc then search lo (mid - 1)
      else search (mid + 1) hi
  in
  (* Ordinary blocks are in ascending pc order; the sink (pc = -1) is
     last and excluded from the search range. *)
  let hi =
    match t.c_unknown with
    | Some _ -> Array.length bs - 2
    | None -> Array.length bs - 1
  in
  search 0 hi

(* A direct target that lands on a decoded instruction, or [None]. *)
let static_target prog (tgt : Vm.Isa.target) =
  match tgt with
  | Addr a -> if Vm.Program.locate prog a <> None then Some a else None
  | Lbl _ -> None

let build (prog : Vm.Program.t) : t =
  let segs = prog.Vm.Program.segments in
  (* Pass 1: leaders — segment starts, branch targets, and the
     instruction after every control transfer. *)
  let leaders = Hashtbl.create 64 in
  let mark_leader pc = Hashtbl.replace leaders pc () in
  Array.iter
    (fun seg ->
      let base = seg.Vm.Program.seg_base in
      let instrs = seg.Vm.Program.seg_instrs in
      if Array.length instrs > 0 then mark_leader base;
      Array.iteri
        (fun i instr ->
          let pc = base + (i * Vm.Isa.instr_size) in
          if Vm.Isa.is_terminator instr && i + 1 < Array.length instrs then
            mark_leader (pc + Vm.Isa.instr_size);
          match instr with
          | Vm.Isa.Jmp tgt | Vm.Isa.Jcc (_, tgt) | Vm.Isa.Call tgt -> (
            match static_target prog tgt with
            | Some a -> mark_leader a
            | None -> ())
          | _ -> ())
        instrs)
    segs;
  (* Pass 2: cut each segment into blocks at leaders/terminators. *)
  let blocks = ref [] in
  let n_blocks = ref 0 in
  let index = Hashtbl.create 64 in
  Array.iter
    (fun seg ->
      let base = seg.Vm.Program.seg_base in
      let instrs = seg.Vm.Program.seg_instrs in
      let n = Array.length instrs in
      let cur = ref [] in
      let cur_pc = ref base in
      let flush () =
        if !cur <> [] then begin
          let b =
            {
              b_id = !n_blocks;
              b_pc = !cur_pc;
              b_instrs = Array.of_list (List.rev !cur);
              b_succs = [];
              b_preds = [];
            }
          in
          incr n_blocks;
          Hashtbl.replace index b.b_pc b.b_id;
          blocks := b :: !blocks;
          cur := []
        end
      in
      for i = 0 to n - 1 do
        let pc = base + (i * Vm.Isa.instr_size) in
        if Hashtbl.mem leaders pc then flush ();
        if !cur = [] then cur_pc := pc;
        cur := (pc, instrs.(i)) :: !cur;
        if Vm.Isa.is_terminator instrs.(i) then flush ()
      done;
      flush ())
    segs;
  let blocks = Array.of_list (List.rev !blocks) in
  (* Pass 3: edges. The unknown sink is materialized lazily, only when
     some instruction actually needs a conservative edge. *)
  let unknown = ref None in
  let edge b target kind = b.b_succs <- (target, kind) :: b.b_succs in
  let edge_unknown b =
    let id =
      match !unknown with
      | Some id -> id
      | None ->
        let id = Array.length blocks in
        unknown := Some id;
        id
    in
    edge b id Unknown
  in
  let block_of_pc pc = Hashtbl.find index pc in
  Array.iter
    (fun b ->
      let last_pc, last = b.b_instrs.(Array.length b.b_instrs - 1) in
      let fallthrough () =
        match Hashtbl.find_opt index (last_pc + Vm.Isa.instr_size) with
        | Some id -> edge b id Fallthrough
        | None -> ()  (* fell off the end of the segment *)
      in
      let direct tgt kind =
        match static_target prog tgt with
        | Some a -> edge b (block_of_pc a) kind
        | None -> (
          match tgt with
          | Vm.Isa.Lbl _ -> edge_unknown b  (* unresolved symbol *)
          | Vm.Isa.Addr _ -> ())  (* faults at runtime; no successor *)
      in
      match last with
      | Vm.Isa.Jmp tgt -> direct tgt Jump
      | Vm.Isa.Jcc (_, tgt) ->
        direct tgt Branch;
        fallthrough ()
      | Vm.Isa.Call tgt ->
        direct tgt Call;
        fallthrough ()
      | Vm.Isa.CallInd _ ->
        edge_unknown b;
        fallthrough ()
      | Vm.Isa.Ret -> edge_unknown b
      | Vm.Isa.Halt -> ()
      | _ -> fallthrough ())
    blocks;
  let blocks =
    match !unknown with
    | None -> blocks
    | Some id ->
      let sink =
        { b_id = id; b_pc = -1; b_instrs = [||]; b_succs = []; b_preds = [] }
      in
      Array.append blocks [| sink |]
  in
  (* Successor lists were built by prepending; restore program order and
     derive predecessor lists. *)
  Array.iter (fun b -> b.b_succs <- List.rev b.b_succs) blocks;
  Array.iter
    (fun b ->
      List.iter
        (fun (s, _) -> blocks.(s).b_preds <- b.b_id :: blocks.(s).b_preds)
        b.b_succs)
    blocks;
  Array.iter (fun b -> b.b_preds <- List.rev b.b_preds) blocks;
  let entries =
    Array.to_list segs
    |> List.filter_map (fun seg ->
           Hashtbl.find_opt index seg.Vm.Program.seg_base)
  in
  { c_blocks = blocks; c_unknown = !unknown; c_entries = entries }

let edge_kind_name = function
  | Fallthrough -> "fallthrough"
  | Jump -> "jump"
  | Branch -> "branch"
  | Call -> "call"
  | Unknown -> "unknown"

(** Graphviz rendering: one box per block listing its disassembly, edge
    styles by kind (dashed = branch, bold = call, dotted = unknown). *)
let to_dot ?(name = "cfg") t =
  let buf = Buffer.create 1024 in
  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=box, fontname=\"monospace\"];\n";
  Array.iter
    (fun b ->
      if b.b_pc = -1 then
        Buffer.add_string buf
          (Printf.sprintf
             "  b%d [label=\"<indirect>\", shape=ellipse, style=dashed];\n"
             b.b_id)
      else begin
        let label = Buffer.create 64 in
        Array.iter
          (fun (pc, instr) ->
            Buffer.add_string label
              (Printf.sprintf "0x%06x  %s\\l" pc
                 (escape (Vm.Disasm.instr_to_string instr))))
          b.b_instrs;
        Buffer.add_string buf
          (Printf.sprintf "  b%d [label=\"%s\"];\n" b.b_id
             (Buffer.contents label))
      end)
    t.c_blocks;
  Array.iter
    (fun b ->
      List.iter
        (fun (s, kind) ->
          let style =
            match kind with
            | Fallthrough | Jump -> ""
            | Branch -> ", style=dashed"
            | Call -> ", style=bold"
            | Unknown -> ", style=dotted"
          in
          Buffer.add_string buf
            (Printf.sprintf "  b%d -> b%d [label=\"%s\"%s];\n" b.b_id s
               (edge_kind_name kind) style))
        b.b_succs)
    t.c_blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
