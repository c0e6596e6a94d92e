(* The original serial community driver: every message is delivered to
   its host to completion, one host after another, with the same
   Producer/Consumer reaction the scheduled driver applies to each
   effect — antibody sync at delivery, producer-side analysis and
   publication on detection, consumer-side rollback, VSEF vetoes feeding
   signature refinement. Kept as the differential-testing reference for
   [Sweeper.Defense.Sharded]: it drives the hosts of a separately created
   community (same seed, so the same layouts), and with a single attacked
   host a one-shard run must end in the same per-host state. Metrics and
   trace instrumentation are left out; nothing else differs. *)

module Defense = Sweeper.Defense
module Antibody = Sweeper.Antibody

type stats = {
  mutable s_attempts : int;
  mutable s_infections : int;
  mutable s_crashes : int;       (** detections via lightweight monitoring *)
  mutable s_blocked : int;       (** stopped by antibodies *)
  mutable s_analyses : int;      (** producer pipeline runs *)
  mutable s_first_antibody_ms : float option;
}

type t = {
  app : string;
  compile : unit -> Minic.Codegen.compiled;
  hosts : Defense.host list;
  mutable antibody : (int * Antibody.t) option;  (** generation, bundle *)
  mutable generation : int;
  mutable corpus : string list;
  verify_before_deploy : bool;
  stats : stats;
  mutable infections : Defense.infection list;
  mutable ab_origin : Defense.ab_origin option;
  mutable statics : (Osim.Process.t * Static_an.Staint.t) option;
}

let create ?(verify_before_deploy = false) ~app ~compile hosts =
  {
    app;
    compile;
    hosts;
    antibody = None;
    generation = 0;
    corpus = [];
    verify_before_deploy;
    stats =
      { s_attempts = 0; s_infections = 0; s_crashes = 0; s_blocked = 0;
        s_analyses = 0; s_first_antibody_ms = None };
    infections = [];
    ab_origin = None;
    statics = None;
  }

let statics_of t =
  match t.statics with
  | Some s -> s
  | None ->
    let proc = Osim.Process.load ~aslr:true ~seed:97 (t.compile ()) in
    let s = (proc, Static_an.Staint.analyze proc.Osim.Process.cpu.Vm.Cpu.code) in
    t.statics <- Some s;
    s

let rejection t antibody =
  let proc, staint = statics_of t in
  let absint = proc.Osim.Process.absint in
  if Antibody.validate_feasible proc absint antibody <> [] then
    Some "static-infeasible"
  else if Antibody.validate_static proc staint antibody <> [] then
    Some "pcs-outside-S"
  else if
    t.verify_before_deploy
    && not (Antibody.verify antibody ~compile:t.compile)
  then Some "replay-failed"
  else None

let publish t antibody =
  match rejection t antibody with
  | Some _ -> false
  | None ->
    t.generation <- t.generation + 1;
    t.antibody <- Some (t.generation, antibody);
    true

let sync_antibody t (host : Defense.host) =
  match t.antibody with
  | Some (gen, ab) when host.Defense.h_deployed < gen ->
    List.iter Sweeper.Vsef.uninstall host.Defense.h_installed;
    Osim.Netlog.remove_filter host.Defense.h_proc.Osim.Process.net
      ~name:("antibody-" ^ t.app);
    host.Defense.h_installed <- Antibody.deploy host.Defense.h_proc ab;
    host.Defense.h_deployed <- gen
  | _ -> ()

let refine_corpus_cap = 8

let record_exploit_sample t payload =
  if
    List.compare_length_with t.corpus refine_corpus_cap < 0
    && not (List.mem payload t.corpus)
  then begin
    t.corpus <- payload :: t.corpus;
    match (t.antibody, t.corpus) with
    | Some (_, ab), (_ :: _ :: _ as corpus) ->
      let refined = Sweeper.Signature.tokens_of_variants (List.rev corpus) in
      ignore (publish t { ab with Antibody.ab_signature = Some refined })
    | _ -> ()
  end

let safe_ck (host : Defense.host) cur =
  fst (Sweeper.Stage.Replay.rollback_point host.Defense.h_server ~msg_index:cur)

type delivery =
  | Served
  | Blocked of string       (** input filter or VSEF stopped it *)
  | Detected_and_analyzed   (** producer ran the pipeline; antibody published *)
  | Crashed_consumer        (** consumer detected the attack but can only recover *)
  | Infected of string

let cur_prov (host : Defense.host) =
  let proc = host.Defense.h_proc in
  let cur = proc.Osim.Process.cur_msg in
  if cur < 0 then None
  else
    Some (cur, (Osim.Netlog.message proc.Osim.Process.net cur).Osim.Netlog.m_prov)

(* The reaction to one delivery outcome, stamped with the host's own
   clock. *)
let react t (host : Defense.host) outcome : delivery =
  let vtime = Osim.Server.vtime_ms host.Defense.h_server in
  match outcome with
  | `Served -> Served
  | `Filtered name ->
    t.stats.s_blocked <- t.stats.s_blocked + 1;
    Blocked name
  | `Infected cmd ->
    host.Defense.h_infected <- true;
    t.stats.s_infections <- t.stats.s_infections + 1;
    (match cur_prov host with
    | Some (cur, p) ->
      t.infections <-
        { Defense.inf_victim = host.Defense.h_id; inf_src = p.Osim.Netlog.p_src;
          inf_seq = p.Osim.Netlog.p_seq; inf_msg = cur;
          inf_arrival = p.Osim.Netlog.p_vtime; inf_vtime = vtime }
        :: t.infections
    | None -> ());
    Infected cmd
  | `Crashed fault ->
    t.stats.s_crashes <- t.stats.s_crashes + 1;
    (match host.Defense.h_role with
    | Defense.Producer ->
      t.stats.s_analyses <- t.stats.s_analyses + 1;
      let origin =
        match cur_prov host with
        | Some (cur, p) ->
          Some
            { Defense.ao_host = host.Defense.h_id; ao_vtime = vtime;
              ao_msg = cur; ao_src = p.Osim.Netlog.p_src;
              ao_seq = p.Osim.Netlog.p_seq }
        | None -> None
      in
      let report =
        Sweeper.Orchestrator.handle_attack ~app:t.app host.Defense.h_server fault
      in
      if t.stats.s_first_antibody_ms = None then
        t.stats.s_first_antibody_ms <-
          Some report.Sweeper.Orchestrator.a_total_ms;
      let accepted = publish t report.Sweeper.Orchestrator.a_antibody in
      if accepted && t.ab_origin = None then t.ab_origin <- origin;
      host.Defense.h_deployed <- t.generation;
      (match
         report.Sweeper.Orchestrator.a_antibody.Antibody.ab_exploit_input
       with
      | Some inputs -> List.iter (record_exploit_sample t) inputs
      | None -> ());
      Detected_and_analyzed
    | Defense.Consumer ->
      let cur = host.Defense.h_proc.Osim.Process.cur_msg in
      ignore
        (Sweeper.Recovery.recover host.Defense.h_server (safe_ck host cur)
           ~skip:[ cur ]);
      Crashed_consumer)
  | `Vetoed ->
    t.stats.s_blocked <- t.stats.s_blocked + 1;
    let proc = host.Defense.h_proc in
    let cur = proc.Osim.Process.cur_msg in
    let payload =
      (Osim.Netlog.message proc.Osim.Process.net cur).Osim.Netlog.m_payload
    in
    ignore
      (Sweeper.Recovery.recover host.Defense.h_server (safe_ck host cur)
         ~skip:[ cur ]);
    record_exploit_sample t payload;
    Blocked "vsef"

(** Deliver one message to one host, to completion. *)
let deliver t (host : Defense.host) payload : delivery =
  if host.Defense.h_infected then Infected "already infected"
  else begin
    t.stats.s_attempts <- t.stats.s_attempts + 1;
    sync_antibody t host;
    match Osim.Server.handle host.Defense.h_server payload with
    | `Served _ -> react t host `Served
    | `Filtered name -> react t host (`Filtered name)
    | `Stopped -> react t host `Served
    | `Infected (_, cmd) -> react t host (`Infected cmd)
    | `Crashed (_, fault) -> react t host (`Crashed fault)
    | exception Sweeper.Detection.Detected _ -> react t host `Vetoed
  end

(** Deliver each host's whole stream in turn, hosts in list order. *)
let run t ~(traffic : Defense.host -> string list) =
  List.iter
    (fun h -> List.iter (fun m -> ignore (deliver t h m)) (traffic h))
    t.hosts

let infected_count t =
  List.length (List.filter (fun h -> h.Defense.h_infected) t.hosts)

let all_alive t =
  List.for_all
    (fun (h : Defense.host) ->
      h.Defense.h_infected
      ||
      match Osim.Server.handle h.Defense.h_server "noop" with
      | `Served _ | `Stopped -> true
      | `Filtered _ | `Crashed _ | `Infected _ -> false)
    t.hosts
