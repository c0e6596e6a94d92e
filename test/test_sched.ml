(* Tests for the cooperative scheduler: interleaving N hosts must be
   observationally identical to running them sequentially — same committed
   outputs, same instruction counts, same checkpoint schedule — including
   when one host is attacked mid-stream while the others serve benign
   traffic. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let compiled = lazy ((Apps.Registry.find "apache1").r_compile ())

let boot seed =
  let proc = Osim.Process.load ~aslr:true ~seed (Lazy.force compiled) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  (proc, server)

let workload n = Apps.Registry.workload "apache1" n

(* Everything observable about a host after its stream was served. *)
type obs = {
  o_outputs : (int * string) list;
  o_served : int;
  o_icount : int;
  o_cursor : int;
  o_checkpoints : int;
  o_latest_ck : int;  (** icount of the newest ring checkpoint *)
}

let observe (proc : Osim.Process.t) (server : Osim.Server.t) ~served =
  {
    o_outputs = Osim.Process.committed_outputs proc;
    o_served = served;
    o_icount = proc.Osim.Process.cpu.Vm.Cpu.icount;
    o_cursor = Osim.Netlog.cursor proc.Osim.Process.net;
    o_checkpoints = Osim.Server.checkpoints_taken server;
    o_latest_ck =
      (match Osim.Checkpoint.latest server.Osim.Server.ring with
      | Some ck -> ck.Osim.Checkpoint.ck_icount
      | None -> -1);
  }

(* One server per stream, each stream served to completion in turn. *)
let run_sequential streams =
  List.mapi
    (fun i msgs ->
      let proc, server = boot (1000 + i) in
      let served = ref 0 in
      List.iter
        (fun m ->
          match Osim.Server.handle server m with
          | `Served _ -> incr served
          | _ -> Alcotest.failf "sequential host %d: message not served" i)
        msgs;
      observe proc server ~served:!served)
    streams

(* Same servers, same streams, interleaved on the scheduler. *)
let run_interleaved ?quantum streams =
  let sched = Osim.Sched.create ?quantum () in
  let hosts =
    List.mapi
      (fun i msgs ->
        let proc, server = boot (1000 + i) in
        let task = Osim.Sched.add sched server in
        List.iter (Osim.Sched.post sched task) msgs;
        (proc, server, task))
      streams
  in
  Osim.Sched.run sched ~handler:(fun task ev ->
      match ev with
      | Osim.Sched.Served _ -> ()
      | Osim.Sched.Crashed _ ->
        Alcotest.failf "host %d crashed on benign traffic" task.Osim.Sched.sk_id
      | _ -> Alcotest.failf "host %d: unexpected event" task.Osim.Sched.sk_id);
  List.map
    (fun (proc, server, task) ->
      observe proc server ~served:task.Osim.Sched.sk_served)
    hosts

let streams4 = [ workload 3; workload 5; workload 2; workload 4 ]

let test_interleaved_matches_sequential () =
  let seq = run_sequential streams4 in
  let inter = run_interleaved ~quantum:500 streams4 in
  List.iteri
    (fun i (a, b) ->
      check_int (Printf.sprintf "host %d served" i) a.o_served b.o_served;
      check_int (Printf.sprintf "host %d icount" i) a.o_icount b.o_icount;
      check_int (Printf.sprintf "host %d cursor" i) a.o_cursor b.o_cursor;
      check_int
        (Printf.sprintf "host %d checkpoints" i)
        a.o_checkpoints b.o_checkpoints;
      check_int
        (Printf.sprintf "host %d latest ck icount" i)
        a.o_latest_ck b.o_latest_ck;
      check_bool (Printf.sprintf "host %d outputs" i) true
        (a.o_outputs = b.o_outputs))
    (List.combine seq inter)

let test_quantum_invariance () =
  (* Slicing the same work into different quanta cannot change anything:
     tiny slices, odd slices, and one slice per stream all agree. *)
  let a = run_interleaved ~quantum:137 streams4 in
  let b = run_interleaved ~quantum:2_000 streams4 in
  let c = run_interleaved ~quantum:10_000_000 streams4 in
  check_bool "137 = 2000" true (a = b);
  check_bool "2000 = whole-stream" true (b = c)

let test_virtual_clock_advances () =
  let sched = Osim.Sched.create ~quantum:500 () in
  let _, server = boot 77 in
  let task = Osim.Sched.add sched server in
  List.iter (Osim.Sched.post sched task) (workload 4);
  Osim.Sched.run sched;
  check_bool "instructions counted" true (Osim.Sched.instructions sched > 0);
  check_bool "took several turns" true (Osim.Sched.steps sched > 1);
  check_bool "virtual clock moved" true (Osim.Sched.vclock_ms sched > 0.);
  check_bool "task clock matches global" true
    (Osim.Sched.vtime_ms task <= Osim.Sched.vclock_ms sched +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Mid-stream attack: one host is exploited while the others serve     *)
(* benign traffic; a one-shard community must end in the same state    *)
(* as the serial oracle (Oracle.Community) delivering every stream in  *)
(* turn. Only host 0 is attacked: with a second attacked host, when    *)
(* the antibody reaches it legitimately differs between the runs.      *)
(* ------------------------------------------------------------------ *)

module Sh = Sweeper.Defense.Sharded
module Oc = Oracle.Community

let exploit =
  (Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 "apache1")
    .Apps.Exploits.x_messages

let entry = Apps.Registry.find "apache1"

let community ?quantum ~n ~producers () =
  Sh.create ?quantum ~shards:1 ~app:"apache1" ~compile:entry.r_compile ~n
    ~producers ~seed:8100 ()

(* A merged sample's value, 0 when absent. *)
let merged_value c name =
  List.fold_left
    (fun acc (m : Obs.Metrics.sample) ->
      if m.Obs.Metrics.s_name <> name then acc
      else
        match m.Obs.Metrics.s_value with
        | Obs.Metrics.Sample_counter k -> acc +. float_of_int k
        | Obs.Metrics.Sample_gauge v -> acc +. v
        | Obs.Metrics.Sample_histogram _ -> acc)
    0. (Sh.merged_metrics c)

let host_outputs hosts =
  List.map
    (fun (h : Sweeper.Defense.host) ->
      Osim.Process.committed_outputs h.Sweeper.Defense.h_proc)
    hosts

(* Run [traffic] through the serial oracle and through a one-shard
   community with [quantum], then a probe round (one benign message and
   the exploit again, on every host) that makes each host sync the
   newest antibody: the probe is filtered by the signature wherever one
   was deployed. Asserts the two end states agree. *)
let differential ~quantum ~n ~producers ~traffic =
  let ser = Oc.create ~app:"apache1" ~compile:entry.r_compile
      (Sh.hosts (community ~n ~producers ()))
  in
  let sch = community ~quantum ~n ~producers () in
  let sch_round traffic =
    Sh.post_traffic sch ~traffic;
    ignore (Sh.run_round sch);
    Sh.summary sch
  in
  Oc.run ser ~traffic;
  let s = sch_round traffic in
  check_int "nobody infected (serial)" 0 (Oc.infected_count ser);
  check_int "nobody infected (sharded)" 0 s.Sh.sm_infected_hosts;
  check_bool "identical per-host outputs" true
    (host_outputs ser.Oc.hosts = host_outputs (Sh.hosts sch));
  let same_counts (s : Sh.summary) =
    let st = ser.Oc.stats in
    check_int "same attempts" st.Oc.s_attempts s.Sh.sm_attempts;
    check_int "same crashes" st.Oc.s_crashes s.Sh.sm_crashes;
    check_int "same analyses" st.Oc.s_analyses s.Sh.sm_analyses;
    check_int "same blocked" st.Oc.s_blocked s.Sh.sm_blocked;
    check_int "same infections" st.Oc.s_infections s.Sh.sm_infections
  in
  same_counts s;
  check_int "same antibody generation" ser.Oc.generation
    (int_of_float (merged_value sch "sweeper_antibodies_published_total"));
  check_bool "serial antibody iff a producer" (producers > 0)
    (ser.Oc.antibody <> None);
  check_bool "sharded antibody iff a producer" (producers > 0)
    (s.Sh.sm_first_antibody_vtime_ms <> None);
  let probe _ = workload 1 @ exploit in
  Oc.run ser ~traffic:probe;
  let s = sch_round probe in
  same_counts s;
  List.iter2
    (fun (a : Sweeper.Defense.host) (b : Sweeper.Defense.host) ->
      let id = a.Sweeper.Defense.h_id in
      check_int
        (Printf.sprintf "host %d generation" id)
        a.Sweeper.Defense.h_deployed b.Sweeper.Defense.h_deployed;
      check_int
        (Printf.sprintf "host %d vsef count" id)
        (List.length a.Sweeper.Defense.h_installed)
        (List.length b.Sweeper.Defense.h_installed);
      let drops (h : Sweeper.Defense.host) =
        Osim.Netlog.dropped_count h.Sweeper.Defense.h_proc.Osim.Process.net
      in
      check_int (Printf.sprintf "host %d signature drops" id) (drops a) (drops b);
      check_bool
        (Printf.sprintf "host %d signature caught the probe" id)
        (producers > 0)
        (drops b > 0))
    ser.Oc.hosts (Sh.hosts sch);
  check_bool "identical per-host outputs after the probe" true
    (host_outputs ser.Oc.hosts = host_outputs (Sh.hosts sch));
  check_bool "serial community still serves" true (Oc.all_alive ser);
  check_bool "sharded community still serves" true (Sh.all_alive sch)

let benign = workload 3

let test_mid_stream_attack_matches_sequential () =
  let traffic (h : Sweeper.Defense.host) =
    if h.Sweeper.Defense.h_id = 0 then benign @ exploit @ workload 2
    else benign
  in
  differential ~quantum:700 ~n:3 ~producers:1 ~traffic

(* The same equality over drawn quanta, host counts, producer counts,
   benign stream lengths, and the exploit's position in host 0's stream. *)
let prop_mid_stream_attack =
  let gen =
    QCheck.Gen.(
      let* quantum = int_range 60 5_000 in
      let* n = int_range 2 6 in
      let* producers = int_range 0 1 in
      let* lens = list_repeat n (int_range 0 4) in
      let* pos = int_range 0 (List.hd lens) in
      return (quantum, producers, lens, pos))
  in
  let print (quantum, producers, lens, pos) =
    Printf.sprintf "quantum %d, producers %d, streams [%s], exploit at %d"
      quantum producers
      (String.concat ";" (List.map string_of_int lens))
      pos
  in
  QCheck.Test.make ~count:12
    ~name:"one-shard community = serial oracle over random streams"
    (QCheck.make ~print gen)
    (fun (quantum, producers, lens, pos) ->
      let streams = Array.of_list (List.map workload lens) in
      let traffic (h : Sweeper.Defense.host) =
        let w = streams.(h.Sweeper.Defense.h_id) in
        if h.Sweeper.Defense.h_id = 0 then
          List.filteri (fun i _ -> i < pos) w
          @ exploit
          @ List.filteri (fun i _ -> i >= pos) w
        else w
      in
      differential ~quantum ~n:(List.length lens) ~producers ~traffic;
      true)

(* ------------------------------------------------------------------ *)

let prop_interleaving_is_invisible =
  QCheck.Test.make ~count:6
    ~name:"random quanta and stream lengths match sequential runs"
    QCheck.(triple (int_range 60 5_000) (int_range 1 5) (int_range 1 5))
    (fun (quantum, n1, n2) ->
      let streams = [ workload n1; workload n2 ] in
      run_interleaved ~quantum streams = run_sequential streams)

(* ------------------------------------------------------------------ *)
(* Domain-sharded community: running the same shard partition on N     *)
(* domains must be bit-identical to running it on one — outputs,       *)
(* icounts, the infection/crash event log, and the first-antibody      *)
(* virtual time. This is the differential oracle for Osim.Cluster.     *)
(* ------------------------------------------------------------------ *)

(* Attack bytes as a pure function of (seed, host, round): both runs of
   an oracle pair see byte-identical traffic regardless of sharding. *)
let attack_for ~seed ~round (h : Sweeper.Defense.host) =
  let rng =
    Random.State.make [| seed; 0xA77AC4; h.Sweeper.Defense.h_id; round |]
  in
  let guess = 0x4f770000 + (Random.State.int rng 4096 * 4096) + 0x15a0 in
  (Apps.Exploits.apache1_against ~system_guess:guess ~reqbuf_addr:0x08100000 ())
    .Apps.Exploits.x_messages

let run_sharded ?outbox_limit ?mailbox_limit ~domains ~shards ~topology ~n
    ~producers ~seed ~rounds () =
  let entry = Apps.Registry.find "apache1" in
  let c =
    Sh.create ?outbox_limit ?mailbox_limit ~domains ~shards ~topology
      ~app:"apache1" ~compile:entry.r_compile ~n ~producers ~seed ()
  in
  for round = 1 to rounds do
    (* Round 1 is a mid-stream attack: benign, exploit, benign. *)
    Sh.post_traffic c ~traffic:(fun h ->
        if round = 1 then workload 2 @ attack_for ~seed ~round h @ workload 1
        else attack_for ~seed ~round h);
    ignore (Sh.run_round c)
  done;
  Sh.summary c

(* Everything except the domain count itself must agree. *)
let oracle_agrees a b = { a with Sh.sm_domains = 0 } = { b with Sh.sm_domains = 0 }

let test_sharded_matches_single_domain () =
  let go domains =
    run_sharded ~domains ~shards:2 ~topology:Osim.Cluster.Uniform ~n:6
      ~producers:1 ~seed:4242 ~rounds:2 ()
  in
  let one = go 1 and two = go 2 in
  check_int "same windows" one.Sh.sm_windows two.Sh.sm_windows;
  check_int "same attempts" one.Sh.sm_attempts two.Sh.sm_attempts;
  check_bool "attack did something" true
    (one.Sh.sm_crashes + one.Sh.sm_blocked + one.Sh.sm_infections > 0);
  check_bool "antibody published" true
    (one.Sh.sm_first_antibody_vtime_ms <> None);
  check_bool "cross-shard mail flowed" true (one.Sh.sm_exchanged > 0);
  check_bool "sharded(2) = sharded(1)" true (oracle_agrees one two)

let prop_sharded_oracle =
  QCheck.Test.make ~count:4
    ~name:"sharded(N domains) = single domain over random topologies"
    QCheck.(triple (int_range 4 7) (int_range 0 2) (int_range 0 1_000_000))
    (fun (n, topo_idx, seed) ->
      let topology =
        match topo_idx with
        | 0 -> Osim.Cluster.Uniform
        | 1 -> Osim.Cluster.Subnet 2
        | _ -> Osim.Cluster.Overlay 3
      in
      let go domains =
        run_sharded ~domains ~shards:2 ~topology ~n ~producers:1 ~seed
          ~rounds:2 ()
      in
      oracle_agrees (go 1) (go 2))

(* Mailbox overflow and outbox backpressure: with the tightest possible
   bounds the run still completes, nothing is dropped (every posted
   message is eventually attempted), and the oracle still holds — bounds
   only reshape scheduling pauses, never results. *)
let test_backpressure_and_mailbox_bounds () =
  let go domains =
    run_sharded ~outbox_limit:1 ~mailbox_limit:1 ~domains ~shards:2
      ~topology:Osim.Cluster.Uniform ~n:6 ~producers:1 ~seed:9001 ~rounds:2 ()
  in
  let tight = go 1 in
  check_bool "outbox bound hit" true (tight.Sh.sm_backpressures > 0);
  check_bool "every message attempted" true (tight.Sh.sm_attempts > 0);
  check_bool "run reached quiescence with bounds" true (tight.Sh.sm_windows > 0);
  check_bool "oracle holds under tight bounds" true (oracle_agrees tight (go 2))

(* The supply-chain surface: a malicious producer broadcasts a
   fabricated antibody whose Store_guard points at a statically
   proven-safe store — no CFG-following execution can overflow there, so
   every shard's publication validation must reject it (the
   static-infeasible bar), counted and logged per shard; a legitimately
   analyzed bundle from real attack traffic must still be adopted. *)
let test_malicious_antibody_round () =
  let entry = Apps.Registry.find "apache1" in
  let c =
    Sh.create ~domains:1 ~shards:2 ~topology:Osim.Cluster.Uniform
      ~app:"apache1" ~compile:entry.r_compile ~n:6 ~producers:1 ~seed:4242 ()
  in
  (* Fabricate against a reference copy: pick the first proven-safe
     access, the one kind of pc an honest overflow analysis can never
     emit a store guard for. *)
  let proc = Osim.Process.load ~aslr:true ~seed:97 (entry.r_compile ()) in
  let ai = proc.Osim.Process.absint in
  let safe_pc = ref None in
  Static_an.Absint.iter_accesses ai (fun pc cls ->
      match (cls, !safe_pc) with
      | Static_an.Absint.Proven _, None -> safe_pc := Some pc
      | _ -> ());
  let safe_pc =
    match !safe_pc with
    | Some pc -> pc
    | None -> Alcotest.fail "no proven-safe access in apache1"
  in
  let fake =
    {
      Sweeper.Antibody.ab_app = "apache1";
      ab_stage = Sweeper.Antibody.Refined;
      ab_vsefs =
        [
          {
            Sweeper.Vsef.v_name = "fabricated-store-guard";
            v_app = "apache1";
            v_check =
              Sweeper.Vsef.Store_guard
                { store = Sweeper.Vsef.loc_of_pc proc safe_pc };
            v_origin = Sweeper.Vsef.From_membug;
          };
        ];
      ab_signature = None;
      ab_exploit_input = None;
    }
  in
  Sh.inject_antibody c fake;
  ignore (Sh.run_round c);
  let s = Sh.summary c in
  let rejections =
    List.filter (fun (_, _, kind) -> kind = "antibody-rejected") s.Sh.sm_events
  in
  check_int "rejected on every shard" 2 (List.length rejections);
  check_bool "no shard adopted the fabrication" true (s.Sh.sm_adoptions = []);
  check_bool "no antibody installed anywhere" true
    (s.Sh.sm_first_antibody_vtime_ms = None);
  let infeasible =
    List.find_map
      (fun (m : Obs.Metrics.sample) ->
        if
          m.Obs.Metrics.s_name = "sweeper_antibody_rejected_total"
          && m.Obs.Metrics.s_labels = [ ("reason", "static-infeasible") ]
        then
          match m.Obs.Metrics.s_value with
          | Obs.Metrics.Sample_counter n -> Some n
          | _ -> None
        else None)
      (Sh.merged_metrics c)
  in
  check_bool "static-infeasible counter = one per shard" true
    (infeasible = Some 2);
  (* A real attack round on the same community must still mint and adopt
     a legitimate antibody — the rejection bar is not a denial of
     service. *)
  Sh.post_traffic c ~traffic:(fun h ->
      workload 2 @ attack_for ~seed:4242 ~round:1 h @ workload 1);
  ignore (Sh.run_round c);
  let s2 = Sh.summary c in
  check_bool "legitimate antibody published" true
    (s2.Sh.sm_first_antibody_vtime_ms <> None);
  check_bool "another shard adopted it" true (s2.Sh.sm_adoptions <> [])

(* Merged community gauges that do not add up across shards: the virtual
   clock is the latest shard clock, not the sum of four, and the first
   antibody's analysis latency keeps its -1 "none yet" sentinel instead
   of summing one per shard. The counts stay sums. *)
let test_merged_gauges_across_shards () =
  let go ~shards ~producers =
    let c =
      Sh.create ~domains:1 ~shards ~app:"apache1" ~compile:entry.r_compile
        ~n:8 ~producers ~seed:4242 ()
    in
    Sh.post_traffic c ~traffic:(fun h ->
        workload 2 @ attack_for ~seed:4242 ~round:1 h);
    ignore (Sh.run_round c);
    c
  in
  let one = go ~shards:1 ~producers:1 and four = go ~shards:4 ~producers:1 in
  let vclock c = merged_value c "sweeper_sched_vclock_ms" in
  check_bool "virtual clock moved" true (vclock one > 0.);
  check_bool "4-shard clock is not a sum of shard clocks" true
    (vclock four < 2. *. vclock one);
  check_bool "first antibody latency is one analysis" true
    (merged_value four "sweeper_community_first_antibody_ms" > 0.);
  check_bool "no antibody reads -1 at 4 shards" true
    (merged_value (go ~shards:4 ~producers:0)
       "sweeper_community_first_antibody_ms"
    = -1.);
  check_int "instruction count sums over shards"
    (Sh.summary four).Sh.sm_instructions
    (int_of_float (merged_value four "sweeper_sched_instructions"))

(* Deterministic qcheck runs by default; QCHECK_SEED overrides. *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 0x5EED)
    | None -> 0x5EED
  in
  Random.State.make [| seed |]

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) in
  Alcotest.run "sched"
    [
      ( "equivalence",
        [
          Alcotest.test_case "interleaved = sequential" `Quick
            test_interleaved_matches_sequential;
          Alcotest.test_case "quantum invariance" `Quick test_quantum_invariance;
          Alcotest.test_case "virtual clock" `Quick test_virtual_clock_advances;
          qt prop_interleaving_is_invisible;
        ] );
      ( "attack",
        [
          Alcotest.test_case "mid-stream attack matches sequential" `Quick
            test_mid_stream_attack_matches_sequential;
          qt prop_mid_stream_attack;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "sharded(2 domains) = single domain" `Quick
            test_sharded_matches_single_domain;
          Alcotest.test_case "bounded mailboxes and outbox backpressure" `Quick
            test_backpressure_and_mailbox_bounds;
          Alcotest.test_case "malicious antibody rejected, legitimate adopted"
            `Quick test_malicious_antibody_round;
          Alcotest.test_case "merged gauges across shards" `Quick
            test_merged_gauges_across_shards;
          qt prop_sharded_oracle;
        ] );
    ]
