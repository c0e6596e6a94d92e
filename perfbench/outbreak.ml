(* outbreak: a Defense.Sharded community of apache1 hosts on two domains,
   with more shards than domains and a small producer fraction. A few
   aimed hit-list probes seed the worm; every infected host then probes a
   few random targets per round, most of them aimed, the rest misaimed
   (those crash producers and consumers alike). Light benign background
   traffic runs throughout. Rounds are a closed loop: post a round's
   traffic, then run the cluster to quiescence. Host creation, the
   scheduler, cluster barriers, consumer recovery and antibody validation
   and adoption do the work; per-host VM work is small. *)

open Util
module D = Sweeper.Defense
module Sh = Sweeper.Defense.Sharded

let hosts = 400
let producers = 32
let domains = 2
let shards = 4
let rounds = 8
let hitlist = 8
let fanout = 2
let aimed_share = 0.7
let background_share = 0.1
let probe_requests = 200
let probe_hosts = 10

let app = Apps.Registry.find "apache1"

let aimed (dst : D.host) =
  let proc = dst.D.h_proc in
  (Apps.Exploits.apache1_against
     ~system_guess:(Osim.Process.system_addr proc)
     ~reqbuf_addr:(Hashtbl.find proc.Osim.Process.data_symbols "reqbuf")
     ())
    .Apps.Exploits.x_messages

let misaimed rng =
  let guess = 0x4f770000 + (Random.State.int rng 4096 * 4096) + 0x15a0 in
  (Apps.Exploits.apache1_against ~system_guess:guess ~reqbuf_addr:0x08100000 ())
    .Apps.Exploits.x_messages

(* One round's traffic, keyed by victim, built purely from (seed, round)
   and the previous round's infected set. Exploit payloads are collected
   in [exploits] to find their arrival times afterwards. *)
let round_traffic ~seed ~round ~benign ~exploits (hs : D.host array) =
  let n = Array.length hs in
  let tbl = Hashtbl.create 256 in
  let add (dst : D.host) pair =
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl dst.D.h_id) in
    Hashtbl.replace tbl dst.D.h_id (pair :: prev)
  in
  let attack src dst msgs =
    List.iter
      (fun m ->
        Hashtbl.replace exploits m ();
        add dst (src, m))
      msgs
  in
  if round = 1 then
    for k = 0 to hitlist - 1 do
      let rng = Random.State.make [| seed; 0x417; k |] in
      (* hit-list probes aim at consumers: a producer detects even an
         accurate hijack *)
      let dst = hs.(producers + Random.State.int rng (n - producers)) in
      attack (-1) dst (aimed dst)
    done
  else
    Array.iter
      (fun (src : D.host) ->
        if src.D.h_infected then begin
          let rng = Random.State.make [| seed; 0x3072; src.D.h_id; round |] in
          for _ = 1 to fanout do
            let dst = hs.(Random.State.int rng n) in
            let is_aimed = Random.State.float rng 1.0 < aimed_share in
            if dst.D.h_id <> src.D.h_id then
              attack src.D.h_id dst (if is_aimed then aimed dst else misaimed rng)
          done
        end)
      hs;
  let rng = Random.State.make [| seed; 0xB6; round |] in
  Array.iter
    (fun (h : D.host) ->
      if Random.State.float rng 1.0 < background_share then
        add h (-1, benign.(Random.State.int rng (Array.length benign))))
    hs;
  fun (h : D.host) ->
    List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl h.D.h_id))

(* What one outbreak measured; latency pairs are (at the reference machine
   speed, raw). *)
type outbreak = {
  o_setup : Calib.op;
  o_rounds : Calib.op list;
  o_summary : Sh.summary;
  o_first_exploit_vms : float;
  o_edges : int;
  o_reconstruct_ms : float;
  o_benign_us : (float * float) list;
  o_rejected : float;
  o_sched : (string * float) list;
  o_tiers : int * int * int;
  o_checkpoints : int;
  o_cow : int;
}

let merged_value samples name =
  List.fold_left
    (fun a (s : Obs.Metrics.sample) ->
      if s.Obs.Metrics.s_name <> name then a
      else
        match s.Obs.Metrics.s_value with
        | Obs.Metrics.Sample_counter n -> a +. float_of_int n
        | Obs.Metrics.Sample_gauge v -> a +. v
        | Obs.Metrics.Sample_histogram (_, _, n) -> a +. float_of_int n)
    0. samples

let one ~seed ~traced (t : tally) =
  let c, setup =
    Calib.timed (fun () ->
        span ~traced ~pid:(-1) "bench.create" (fun () ->
            Sh.create ~domains ~shards ~app:"apache1"
              ~compile:app.Apps.Registry.r_compile ~n:hosts ~producers ~seed ()))
  in
  let hs = Array.of_list (Sh.hosts c) in
  let benign = Array.of_list (Apps.Workload.httpd ~seed 256) in
  let exploits = Hashtbl.create 1024 in
  let rounds =
    List.init rounds (fun i ->
        let round = i + 1 in
        let traffic = round_traffic ~seed ~round ~benign ~exploits hs in
        Sh.post_traffic_from c ~traffic;
        let _, op =
          Calib.timed ~par:true (fun () ->
              span ~traced ~pid:(-1) "bench.round" (fun () -> Sh.run_round c))
        in
        check t None;
        op)
  in
  let sm = Sh.summary c in
  (* First exploit arrival, read off the hosts' netlog provenance. *)
  let first_exploit =
    Array.fold_left
      (fun acc (h : D.host) ->
        let net = h.D.h_proc.Osim.Process.net in
        let best = ref acc in
        for id = 0 to Osim.Netlog.message_count net - 1 do
          let m = Osim.Netlog.message net id in
          if Hashtbl.mem exploits m.Osim.Netlog.m_payload then
            best := Float.min !best m.Osim.Netlog.m_prov.Osim.Netlog.p_vtime
        done;
        !best)
      Float.infinity hs
  in
  let tree, recon_s =
    timed (fun () ->
        span ~traced "bench.forensics" (fun () ->
            Forensics.reconstruct (Forensics.of_sharded c)))
  in
  check t
    (match Forensics.check tree (Forensics.ground_truth c) with
    | Ok () -> None
    | Error why -> Some ("outbreak: forensics diverge from ground truth: " ^ why));
  (* Benign service on immunized consumers, after the outbreak. *)
  let consumers =
    List.filter
      (fun (h : D.host) ->
        h.D.h_role = D.Consumer && (not h.D.h_infected) && h.D.h_installed <> [])
      (Array.to_list hs)
    |> Array.of_list
  in
  (* One heap holds every simulated host: settle the simulator's own GC
     debt first, so a single host's request latency does not pay for the
     whole community's garbage. *)
  Gc.full_major ();
  let benign_us =
    if Array.length consumers = 0 then begin
      check t (Some "outbreak: no immunized consumer");
      []
    end
    else
      let k = min probe_hosts (Array.length consumers) in
      List.init probe_requests (fun i ->
          let h = consumers.(i mod k) in
          let t0 = now () in
          let r =
            Sweeper.Orchestrator.protected_handle ~app:"apache1" h.D.h_server
              benign.(i mod Array.length benign)
          in
          let dt = now () -. t0 in
          (match r with
          | `Served _ -> check t None
          | _ -> check t (Some "outbreak: benign request refused on a consumer"));
          Calib.tick ();
          (Calib.scale dt *. 1e6, dt *. 1e6))
  in
  let merged = Sh.merged_metrics c in
  let tiers =
    Array.fold_left
      (fun (b, f, s) (h : D.host) ->
        let b', f', s' = retired h.D.h_proc.Osim.Process.cpu in
        (b + b', f + f', s + s'))
      (0, 0, 0) hs
  in
  let checkpoints, cow =
    Array.fold_left
      (fun (k, w) (h : D.host) ->
        ( k + Osim.Server.checkpoints_taken h.D.h_server,
          w + fst (Vm.Memory.stats h.D.h_proc.Osim.Process.mem) ))
      (0, 0) hs
  in
  {
    o_setup = setup;
    o_rounds = rounds;
    o_summary = sm;
    o_first_exploit_vms = first_exploit;
    o_edges = List.length tree.Forensics.t_edges;
    o_reconstruct_ms = recon_s *. 1000.;
    o_benign_us = benign_us;
    o_rejected = merged_value merged "sweeper_antibody_rejected_total";
    o_sched =
      List.map
        (fun (k, n) -> (k, merged_value merged n))
        [ ("sched.steps", "sweeper_sched_steps");
          ("sched.parks", "sweeper_sched_parks");
          ("sched.instructions", "sweeper_sched_instructions") ];
    o_tiers = tiers;
    o_checkpoints = checkpoints;
    o_cow = cow;
  }

let antibody_vms o =
  match o.o_summary.Sh.sm_first_antibody_vtime_ms with
  | Some v -> v -. o.o_first_exploit_vms
  | None -> Float.nan

let infected_pct o =
  100. *. float_of_int o.o_summary.Sh.sm_infected_hosts
  /. float_of_int o.o_summary.Sh.sm_hosts

let run ~seed ~budget ~traced (t : tally) =
  let t_start = now () in
  let obs = ref [] in
  let traced_rounds_ms = ref [] in
  let i = ref 0 in
  (* at least three outbreaks, so set-up time is a median *)
  while !i < 3 || now () -. t_start < budget do
    let o = one ~seed:(seed_mix seed [| 0x0B; !i |]) ~traced t in
    obs := o :: !obs;
    if traced then begin
      (* only outbreaks recorded whole feed the cluster busy/idle split *)
      if Obs.Trace.enabled () then
        traced_rounds_ms :=
          List.map (fun op -> op.Calib.raw *. 1000.) o.o_rounds :: !traced_rounds_ms;
      trace_guard ()
    end;
    incr i;
    Gc.compact ()
  done;
  let obs = List.rev !obs in
  let cluster =
    if not traced then []
    else
      let tbl = span_stats () in
      let n = List.length !traced_rounds_ms in
      let rounds_ms = sum (List.concat !traced_rounds_ms) in
      let busy = sum (span_durs_ms tbl "window") in
      [ ("cluster.barrier_ms", sum (span_durs_ms tbl "barrier") /. float_of_int (max 1 n));
        ("cluster.idle_share",
          if rounds_ms > 0. then 1. -. (busy /. (float_of_int domains *. rounds_ms))
          else 0.) ]
  in
  let o0 = List.hd obs in
  let sm = o0.o_summary in
  let fi = float_of_int in
  (* A run holds many outbreaks whose epidemics differ; throughput is the
     median over outbreaks, so one that spreads further does not swamp it. *)
  let metrics scaled =
    let pick (s, raw) = if scaled then s else raw in
    let op o = if scaled then Calib.at_ref o else o.Calib.raw in
    let rounds_ms = List.concat_map (fun o -> List.map (fun r -> op r *. 1000.) o.o_rounds) obs in
    let benign = List.concat_map (fun o -> List.map pick o.o_benign_us) obs in
    [ ("setup_s", median (List.map (fun o -> op o.o_setup) obs));
      ("throughput_per_s",
        median (List.map (fun o -> fi hosts /. sum (List.map op o.o_rounds)) obs));
      ("step_ms_p50", median rounds_ms);
      ("step_ms_mean", mean rounds_ms);
      ("benign_us_p50", percentile 50. benign);
      ("benign_us_p99", percentile 99. benign) ]
  in
  let b, f, s = o0.o_tiers in
  let instrs = fi (b + f + s) in
  let exact =
    [ ("vm.instructions", string_of_int sm.Sh.sm_instructions);
      ("checkpoint.taken", string_of_int o0.o_checkpoints);
      ("defense.crashes", string_of_int sm.Sh.sm_crashes);
      ("defense.blocked", string_of_int sm.Sh.sm_blocked);
      ("defense.analyses", string_of_int sm.Sh.sm_analyses);
      ("defense.rejected", Printf.sprintf "%.0f" o0.o_rejected);
      ("cluster.windows", string_of_int sm.Sh.sm_windows);
      ("cluster.exchanged", string_of_int sm.Sh.sm_exchanged);
      ("cluster.deferred", string_of_int sm.Sh.sm_deferred);
      ("outbreak.infected_pct", Printf.sprintf "%h" (infected_pct o0));
      ("outbreak.antibody_vms", Printf.sprintf "%h" (antibody_vms o0));
      ("forensics.edges", string_of_int o0.o_edges) ]
    @ List.map (fun (k, v) -> (k, Printf.sprintf "%.0f" v)) o0.o_sched
  in
  {
    e2e = metrics true;
    e2e_raw = metrics false;
    samples =
      [ ("setup_s", List.length obs); ("outbreaks", List.length obs);
        ("rounds", rounds * List.length obs);
        ("benign", List.length (List.concat_map (fun o -> o.o_benign_us) obs)) ];
    layer =
      [ ("vm.ns_per_instr",
          sum (List.map (fun op -> op.Calib.raw) o0.o_rounds) *. 1e9 /. instrs);
        ("vm.block_share", fi b /. instrs);
        ("vm.slow_share", fi s /. instrs);
        ("checkpoint.cow_copies", fi o0.o_cow);
        ("outbreak.infected_pct", infected_pct o0);
        ("outbreak.antibody_vms", antibody_vms o0);
        ("forensics.reconstruct_ms",
          median (List.map (fun o -> o.o_reconstruct_ms) obs)) ]
      @ cluster;
    exact;
  }
