(* serve: the common case Sweeper claims is lightweight. One client in a
   closed loop sends a benign request mix over the four applications, each
   running on one protected server (ASLR plus the paper's default
   checkpointing). Nothing is ever attacked, so no analysis layer runs:
   the block tier, checkpoint take and COW do the work. *)

open Util

let pool_size = 4096
let boots = 9

(* The simulator keeps every message and response a server ever handled;
   servers are replaced by fresh boots every [session] requests so a run's
   memory stays bounded. *)
let session = 100_000

(* Requests whose counters must repeat exactly: the deterministic prefix
   of every run's request sequence. *)
let det_requests = 2000

let app_seed seed i = seed_mix seed [| 0x5E; i |]

(* Compile and load every app onto a fresh server, booted to idle. *)
let boot ~seed ~config ~traced =
  Array.of_list
    (List.mapi
       (fun i (e : Apps.Registry.entry) ->
         let compiled = e.Apps.Registry.r_compile () in
         let proc, load_s =
           timed (fun () ->
               span ~traced ~pid:(-1) "bench.load" (fun () ->
                   Osim.Process.load ~aslr:true ~seed:(app_seed seed i) compiled))
         in
         let server = Osim.Server.create ~config proc in
         (match Osim.Server.run server with
         | Osim.Server.Idle -> ()
         | _ -> failwith (e.Apps.Registry.r_key ^ " did not boot to idle"));
         (server, load_s))
       Apps.Registry.all)

let no_checkpoints = { Osim.Server.default_config with checkpoint_interval_ms = 0 }

let tiers servers =
  Array.fold_left
    (fun (b, f, s) (srv : Osim.Server.t) ->
      let b', f', s' = retired srv.Osim.Server.proc.Osim.Process.cpu in
      (b + b', f + f', s + s'))
    (0, 0, 0) servers

let counters servers =
  let b, f, s = tiers servers in
  let ck = Array.fold_left (fun a srv -> a + Osim.Server.checkpoints_taken srv) 0 servers in
  let cow =
    Array.fold_left
      (fun a (srv : Osim.Server.t) ->
        a + fst (Vm.Memory.stats srv.Osim.Server.proc.Osim.Process.mem))
      0 servers
  in
  [ ("vm.instructions", string_of_int (b + f + s));
    ("checkpoint.taken", string_of_int ck);
    ("checkpoint.cow_copies", string_of_int cow) ]

let run ~seed ~budget ~traced (t : tally) =
  let n_apps = List.length Apps.Registry.all in
  (* Set-up: compile and load every app, several times; the last boot
     serves the first session. *)
  let boots =
    List.init boots (fun _ ->
        Calib.timed (fun () ->
            span ~traced ~pid:(-1) "bench.setup" (fun () ->
                boot ~seed ~config:Osim.Server.default_config ~traced)))
  in
  let load_ms =
    median
      (List.concat_map
         (fun (b, _) -> Array.to_list (Array.map (fun (_, s) -> s *. 1000.) b))
         boots)
  in
  let pools =
    Array.of_list
      (List.mapi
         (fun i (e : Apps.Registry.entry) ->
           Array.of_list
             (Apps.Registry.workload ~seed:(app_seed seed (100 + i))
                e.Apps.Registry.r_key pool_size))
         Apps.Registry.all)
  in
  let next = Array.make n_apps 0 in
  let msg a =
    let m = pools.(a).(next.(a) mod pool_size) in
    next.(a) <- next.(a) + 1;
    m
  in
  let rng = Random.State.make [| seed; 0x5E47E |] in
  let lat = Samples.create () and lat_raw = Samples.create () in
  let exact = ref [] in
  let n = ref 0 and busy = ref 0. and instrs = ref (0, 0, 0) in
  let servers = ref (Array.map fst (fst (List.nth boots (List.length boots - 1)))) in
  while !n < det_requests || !busy < budget do
    (* One session: [session] requests on the current servers, then the
       output check against unprotected twins (checkpointing off, same
       layouts) fed the same sequence. *)
    let srvs = !servers in
    let first = Array.copy next in
    let order = ref [] in
    let b0, f0, s0 = tiers srvs in
    let k = ref 0 in
    while !k < session && (!n < det_requests || !busy < budget) do
      let a = Random.State.int rng n_apps in
      let m = msg a in
      let srv = srvs.(a) in
      let t0 = now () in
      let r =
        span ~traced ~pid:srv.Osim.Server.id "bench.request" (fun () ->
            Osim.Server.handle srv m)
      in
      let dt = now () -. t0 in
      Samples.add lat_raw dt;
      busy := !busy +. dt;
      Samples.add lat (Calib.scale dt);
      order := a :: !order;
      (match r with
      | `Served _ -> check t None
      | _ -> check t (Some "serve: benign request not served"));
      incr n;
      incr k;
      if !n = det_requests then exact := counters srvs;
      if traced then trace_guard ();
      Calib.tick ()
    done;
    let b1, f1, s1 = tiers srvs in
    let b, f, s = !instrs in
    instrs := (b + b1 - b0, f + f1 - f0, s + s1 - s0);
    let twins = Array.map fst (boot ~seed ~config:no_checkpoints ~traced:false) in
    let replay = Array.copy first in
    List.iter
      (fun a ->
        let m = pools.(a).(replay.(a) mod pool_size) in
        replay.(a) <- replay.(a) + 1;
        ignore (Osim.Server.handle twins.(a) m))
      (List.rev !order);
    List.iteri
      (fun a (e : Apps.Registry.entry) ->
        let outs (s : Osim.Server.t) = Osim.Process.committed_outputs s.Osim.Server.proc in
        check t
          (if outs srvs.(a) = outs twins.(a) then None
           else
             Some ("serve: " ^ e.Apps.Registry.r_key ^ " outputs differ from the unprotected twin")))
      Apps.Registry.all;
    servers := Array.map fst (boot ~seed ~config:Osim.Server.default_config ~traced:false)
  done;
  let metrics setup lat =
    let s = Samples.sorted lat in
    [ ("setup_s", median setup);
      ("throughput_per_s", float_of_int !n /. Samples.sum lat);
      ("step_ms_p50", percentile_sorted 50. s *. 1000.);
      ("step_ms_mean", Samples.sum lat /. float_of_int !n *. 1000.);
      ("benign_us_p50", percentile_sorted 50. s *. 1e6);
      ("benign_us_p99", percentile_sorted 99. s *. 1e6) ]
  in
  let b, f, s = !instrs in
  let total = float_of_int (b + f + s) in
  {
    e2e = metrics (List.map (fun (_, op) -> Calib.at_ref op) boots) lat;
    e2e_raw = metrics (List.map (fun (_, op) -> op.Calib.raw) boots) lat_raw;
    samples = [ ("setup_s", List.length boots); ("requests", !n); ("benign", !n) ];
    layer =
      [ ("vm.ns_per_instr", !busy *. 1e9 /. total);
        ("vm.block_share", float_of_int b /. total);
        ("vm.slow_share", float_of_int s /. total);
        ("process.load_ms", load_ms) ];
    exact = !exact;
  }
