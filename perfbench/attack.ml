(* attack: the paper's Fig. 5 timeline as a closed loop with one attacker.
   Each cycle visits the four apps once, each on a fresh ASLR layout drawn
   from the seed. Per app: a fixed warm history of benign messages, the
   canonical exploit through Orchestrator.protected_handle (detect ->
   staged analysis -> antibody -> recovery), then benign traffic
   interleaved with polymorphic variants on the now-immunized server. The
   replay engines, rollback and recovery do nearly all the work; the
   immune phase runs the serve VM with VSEF pc-hooks armed. *)

open Util
module O = Sweeper.Orchestrator

let warm_msgs = 200
let immune_msgs = 320
let variant_every = 40

(* Table 2, per app: crash class and the relocatable VSEF set. Slices must
   verify on every app. *)
let expected = function
  | "apache1" ->
    ("Exec_violation", [ "side-stack-try_alias_list"; "store-guard"; "taint-filter" ])
  | "apache2" -> ("Segv_read", [ "null-check" ])
  | "cvs" -> ("Segv_write", [ "double-free-site"; "free-guard" ])
  | "squid" -> ("Segv_write", [ "heap-bounds"; "heap-bounds-refined"; "taint-filter" ])
  | k -> invalid_arg k

(* The bracketed family tag of a rendered VSEF: "VSEF[tag] ..." -> tag. *)
let vsef_tag s =
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some i, Some j when j > i -> String.sub s (i + 1) (j - i - 1)
  | _ -> s

let fault_class = function
  | Vm.Event.Segv_read _ -> "Segv_read"
  | Vm.Event.Segv_write _ -> "Segv_write"
  | Vm.Event.Exec_violation _ -> "Exec_violation"
  | Vm.Event.Div_zero -> "Div_zero"

let system_guess = 0x12345678

(* What one app visit measured. Times are at the reference machine
   speed unless named raw. *)
type visit = {
  v_app : string;
  v_setup : Calib.op;  (** compile + load *)
  v_load_ms : float;
  v_stall : Calib.op;  (** exploit delivery -> live again *)
  v_first_ms : float;
  v_best_ms : float;
  v_timings : O.stage_timing list;
  v_replay_msgs : int;
  v_replayed : int;
  v_vsefs : string list;
  v_ab_vsefs : int;
  v_hooked : int;
  v_validate_ms : float;
  v_deploy_us : float;
  v_veto_ms : float list;
  v_benign_us : float list * float list;  (** scaled, raw *)
  v_benign_instrs : int * int * int;  (** retired by tier during benign *)
  v_benign_s : float;  (** raw *)
  v_calls_s : float * float;
      (** the warm and immune phases' calls into the program: scaled, raw;
          with the stall, the program's own time *)
  v_retired : int;
  v_checkpoints : int;
}

let visit ~seed ~cycle ~idx ~warm ~immune ~traced (t : tally)
    (e : Apps.Registry.entry) =
  let app = e.Apps.Registry.r_key in
  let lseed = seed_mix seed [| 0xA7; cycle; idx |] in
  let fail fmt = Printf.ksprintf (fun s -> check t (Some (app ^ ": " ^ s))) fmt in
  (* program time, scaled and raw, of every call the visit makes into it *)
  let prog = ref 0. and prog_raw = ref 0. in
  let call f =
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    prog := !prog +. Calib.scale dt;
    prog_raw := !prog_raw +. dt;
    (r, dt)
  in
  let (proc, load_s), setup =
    Calib.timed (fun () ->
        let compiled = e.Apps.Registry.r_compile () in
        timed (fun () ->
            span ~traced ~pid:(-1) "bench.load" (fun () ->
                Osim.Process.load ~aslr:true ~seed:lseed compiled)))
  in
  let server = Osim.Server.create proc in
  let pid = server.Osim.Server.id in
  ignore (Osim.Server.run server);
  List.iter
    (fun m ->
      (match fst (call (fun () -> O.protected_handle ~app server m)) with
      | `Served _ -> check t None
      | _ -> fail "warm message not served");
      Calib.tick ())
    warm;
  (* The exploit. *)
  let net = proc.Osim.Process.net in
  let first_id = Osim.Netlog.message_count net in
  let ck, _ = Sweeper.Stage.Replay.rollback_point server ~msg_index:first_id in
  let exploit =
    (Apps.Registry.exploit ~system_guess ~cmd_ptr:0 app).Apps.Exploits.x_messages
  in
  let results, stall =
    Calib.timed (fun () ->
        span ~traced ~pid "bench.attack" (fun () ->
            List.map (fun m -> O.protected_handle ~app server m) exploit))
  in
  let r =
    match List.filter_map (function `Attack r -> Some r | _ -> None) results with
    | [ r ] -> r
    | _ -> failwith (app ^ ": the exploit did not yield exactly one analysis")
  in
  let want_fault, want_vsefs = expected app in
  let vsefs =
    List.sort_uniq compare (List.map (fun v -> Sweeper.Vsef.to_string v) r.O.a_vsefs)
  in
  check t
    (if fault_class r.O.a_fault <> want_fault then
       Some (Printf.sprintf "%s: crash class %s, Table 2 has %s" app
               (fault_class r.O.a_fault) want_fault)
     else if List.sort compare (List.map vsef_tag vsefs) <> want_vsefs then
       Some (Printf.sprintf "%s: VSEFs %s, Table 2 has %s" app
               (String.concat "," (List.map vsef_tag vsefs))
               (String.concat "," want_vsefs))
     else if not r.O.a_slice_verifies then Some (app ^ ": slice does not verify")
     else None);
  (* Analysis starts at detection; delivery -> milestone adds the
     handling before detection. *)
  let pre_ms = (stall.Calib.raw *. 1000.) -. r.O.a_total_ms in
  let quarantined = Osim.Netlog.quarantined_count net in
  let replay_msgs = Osim.Netlog.message_count net - ck.Osim.Checkpoint.ck_net_cursor in
  (* Static antibody validation, as a consumer would run it. *)
  let ab = r.O.a_antibody in
  let sa = Static_an.Staint.analyze proc.Osim.Process.cpu.Vm.Cpu.code in
  let bad, validate_s =
    timed (fun () ->
        Sweeper.Antibody.validate_static ~absint:proc.Osim.Process.absint proc sa ab)
  in
  check t (if bad <> [] then Some (app ^ ": own antibody fails static validation") else None);
  let hooked = Vm.Cpu.pc_hook_count proc.Osim.Process.cpu in
  (* Immune phase: benign traffic interleaved with variants. *)
  let variants = Apps.Exploits.variants ~system_guess ~cmd_ptr:0 app in
  let nv = List.length variants in
  let benign = ref [] and benign_raw = ref [] and veto_ms = ref [] in
  let rb = ref 0 and rf = ref 0 and rs = ref 0 and benign_s = ref 0. in
  let variant (v : Apps.Exploits.t) =
    let rec go = function
      | [] -> ()
      | [ last ] -> (
        match call (fun () -> O.protected_handle ~app server last) with
        | `Filtered _, _ -> check t None
        | `Blocked_by_vsef _, dt ->
          veto_ms := (dt *. 1000.) :: !veto_ms;
          check t None
        | `Compromised, _ -> fail "variant %s compromised the server" v.Apps.Exploits.x_name
        | _ -> fail "variant %s was neither filtered nor vetoed" v.Apps.Exploits.x_name)
      | m :: rest -> (
        match fst (call (fun () -> O.protected_handle ~app server m)) with
        | `Served _ | `Filtered _ | `Blocked_by_vsef _ -> go rest
        | _ -> fail "variant %s prefix misbehaved" v.Apps.Exploits.x_name)
    in
    go v.Apps.Exploits.x_messages
  in
  List.iteri
    (fun i m ->
      if i > 0 && i mod variant_every = 0 && nv > 0 then
        variant (List.nth variants (((i / variant_every) - 1) mod nv));
      let b0, f0, s0 = retired proc.Osim.Process.cpu in
      let res, dt =
        call (fun () ->
            span ~traced ~pid "bench.request" (fun () -> O.protected_handle ~app server m))
      in
      let b1, f1, s1 = retired proc.Osim.Process.cpu in
      rb := !rb + (b1 - b0);
      rf := !rf + (f1 - f0);
      rs := !rs + (s1 - s0);
      benign_s := !benign_s +. dt;
      benign := (Calib.scale dt *. 1e6) :: !benign;
      benign_raw := (dt *. 1e6) :: !benign_raw;
      (match res with
      | `Served _ -> check t None
      | _ -> fail "benign request not served on the immunized server");
      Calib.tick ())
    immune;
  check t (if proc.Osim.Process.compromised <> None then Some (app ^ ": server compromised") else None);
  (* Output check: a never-attacked twin fed every message the defense
     let through must commit the same responses. *)
  let twin = Osim.Process.load ~aslr:true ~seed:lseed (e.Apps.Registry.r_compile ()) in
  let tsrv = Osim.Server.create twin in
  ignore (Osim.Server.run tsrv);
  for id = 0 to Osim.Netlog.message_count net - 1 do
    if not (Osim.Netlog.is_quarantined net id) then
      ignore (Osim.Server.handle tsrv (Osim.Netlog.message net id).Osim.Netlog.m_payload)
  done;
  let kept =
    List.filter_map
      (fun (id, p) -> if Osim.Netlog.is_quarantined net id then None else Some p)
      (Osim.Process.committed_outputs proc)
  in
  check t
    (if kept <> List.map snd (Osim.Process.committed_outputs twin) then
       Some (app ^ ": outputs differ from the never-attacked replay")
     else None);
  let installed, deploy_s = timed (fun () -> Sweeper.Antibody.deploy twin ab) in
  check t
    (if installed = [] && ab.Sweeper.Antibody.ab_vsefs <> [] then
       Some (app ^ ": antibody deployed no VSEF")
     else None);
  let b, f, s = retired proc.Osim.Process.cpu in
  {
    v_app = app;
    v_setup = setup;
    v_load_ms = load_s *. 1000.;
    v_stall = stall;
    v_first_ms = pre_ms +. r.O.a_time_to_first_vsef_ms;
    v_best_ms = pre_ms +. r.O.a_time_to_best_vsef_ms;
    v_timings = r.O.a_timings;
    v_replay_msgs = replay_msgs;
    v_replayed = replay_msgs - quarantined;
    v_vsefs = vsefs;
    v_ab_vsefs = List.length ab.Sweeper.Antibody.ab_vsefs;
    v_hooked = hooked;
    v_validate_ms = validate_s *. 1000.;
    v_deploy_us = deploy_s *. 1e6;
    v_veto_ms = !veto_ms;
    v_benign_us = (!benign, !benign_raw);
    v_benign_instrs = (!rb, !rf, !rs);
    v_benign_s = !benign_s;
    v_calls_s = (!prog, !prog_raw);
    v_retired = b + f + s;
    v_checkpoints = Osim.Server.checkpoints_taken server;
  }

let run ~seed ~budget ~traced (t : tally) =
  let apps = Apps.Registry.all in
  (* The warm history is fixed: the same messages for every seed, so the
     replay window every analysis covers is the same size. Layouts and the
     immune-phase traffic vary with the seed. *)
  let warm =
    List.map
      (fun (e : Apps.Registry.entry) ->
        Apps.Registry.workload ~seed:0x3A7 e.Apps.Registry.r_key warm_msgs)
      apps
  in
  let immune =
    List.mapi
      (fun i (e : Apps.Registry.entry) ->
        Apps.Registry.workload ~seed:(seed_mix seed [| 0xAB; i |])
          e.Apps.Registry.r_key immune_msgs)
      apps
  in
  let t_start = now () in
  let cycles = ref [] in
  let cycle = ref 0 in
  while !cycle = 0 || now () -. t_start < budget do
    let vs =
      List.mapi
        (fun idx e ->
          let v =
            visit ~seed ~cycle:!cycle ~idx ~warm:(List.nth warm idx)
              ~immune:(List.nth immune idx) ~traced t e
          in
          if traced then trace_guard ();
          v)
        apps
    in
    cycles := vs :: !cycles;
    incr cycle;
    (* return the cycle's garbage between cycles, outside any timing *)
    Gc.compact ()
  done;
  let cycles = List.rev !cycles in
  let all = List.concat cycles in
  let c0 = List.hd cycles in
  let fi = float_of_int in
  (* Stalls cluster by app; the median of the mixture would sit in a gap
     between clusters, so p50 is each app's median stall, averaged. *)
  let metrics scaled =
    let pick (s, raw) = if scaled then s else raw in
    let op o = if scaled then Calib.at_ref o else o.Calib.raw in
    let stall v = op v.v_stall *. 1000. in
    (* Stalls cluster by app; the median of the mixture would sit in a gap
       between clusters, so p50 is each app's median stall, averaged. *)
    let per_app_median =
      mean
        (List.map
           (fun (e : Apps.Registry.entry) ->
             median
               (List.filter_map
                  (fun v -> if v.v_app = e.Apps.Registry.r_key then Some (stall v) else None)
                  all))
           apps)
    in
    let benign = List.concat_map (fun v -> pick v.v_benign_us) all in
    let program v = pick v.v_calls_s +. op v.v_stall in
    [ ("setup_s", median (List.map (fun vs -> sum (List.map (fun v -> op v.v_setup) vs)) cycles));
      ("throughput_per_s", float_of_int (List.length all) /. sum (List.map program all));
      ("step_ms_p50", per_app_median);
      ("step_ms_mean", mean (List.map stall all));
      ("benign_us_p50", percentile 50. benign);
      ("benign_us_p99", percentile 99. benign) ]
  in
  let stage_ms k =
    sum
      (List.concat_map
         (fun v ->
           List.filter_map
             (fun (s : O.stage_timing) ->
               if s.O.st_name = List.assoc k Layers.stage_names then Some s.O.st_wall_ms
               else None)
             v.v_timings)
         all)
  in
  let stage_instrs vs k =
    List.fold_left
      (fun a v ->
        List.fold_left
          (fun a (s : O.stage_timing) ->
            if s.O.st_name = List.assoc k Layers.stage_names then a + s.O.st_instructions
            else a)
          a v.v_timings)
      0 vs
  in
  let isum f vs = List.fold_left (fun a v -> a + f v) 0 vs in
  let bb = isum (fun v -> let b, _, _ = v.v_benign_instrs in b) all in
  let bf = isum (fun v -> let _, f, _ = v.v_benign_instrs in f) all in
  let bs = isum (fun v -> let _, _, s = v.v_benign_instrs in s) all in
  let binstrs = fi (bb + bf + bs) in
  let n_att = fi (List.length all) in
  let exact =
    [ ("vm.instructions", string_of_int (isum (fun v -> v.v_retired) c0));
      ("checkpoint.taken", string_of_int (isum (fun v -> v.v_checkpoints) c0));
      ("antibody.vsefs", string_of_int (isum (fun v -> v.v_ab_vsefs) c0));
      ("vsef.hooked_pcs", string_of_int (isum (fun v -> v.v_hooked) c0));
      ("stage.replay_msgs", string_of_int (isum (fun v -> v.v_replay_msgs) c0));
      ("recovery.replayed_msgs", string_of_int (isum (fun v -> v.v_replayed) c0)) ]
    @ List.map
        (fun k -> ("stage." ^ k ^ ".instrs", string_of_int (stage_instrs c0 k)))
        Layers.stages
    @ List.map (fun v -> ("vsefs." ^ v.v_app, String.concat "|" v.v_vsefs)) c0
  in
  let ns_per k =
    let i = stage_instrs all k in
    if i = 0 then 0. else stage_ms k *. 1e6 /. fi i
  in
  {
    e2e = metrics true;
    e2e_raw = metrics false;
    samples =
      [ ("setup_s", List.length cycles); ("attacks", List.length all);
        ("benign", List.length (List.concat_map (fun v -> fst v.v_benign_us) all)) ];
    layer =
      [ ("vm.ns_per_instr", sum (List.map (fun v -> v.v_benign_s) all) *. 1e9 /. binstrs);
        ("vm.block_share", fi bb /. binstrs);
        ("vm.slow_share", fi bs /. binstrs);
        ("attack.first_vsef_ms_p50", median (List.map (fun v -> v.v_first_ms) all));
        ("attack.best_vsef_ms_p50", median (List.map (fun v -> v.v_best_ms) all));
        ("vsef.veto_ms_p50", median (List.concat_map (fun v -> v.v_veto_ms) all));
        ("antibody.validate_ms", median (List.map (fun v -> v.v_validate_ms) all));
        ("antibody.deploy_us", median (List.map (fun v -> v.v_deploy_us) all));
        ("process.load_ms", median (List.map (fun v -> v.v_load_ms) all)) ]
      @ List.map (fun k -> ("stage." ^ k ^ ".ms", stage_ms k /. n_att)) Layers.stages
      @ List.concat_map
          (fun k -> [ ("stage." ^ k ^ ".ns_per_instr", ns_per k) ])
          Layers.ns_stages;
    exact;
  }
