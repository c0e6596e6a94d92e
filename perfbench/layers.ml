(* The per-layer metric catalogue, and the measurements main takes for
   every workload's traced pass: span-derived numbers and the process
   (host creation) probe. Every workload prints every catalogue entry; a
   layer the workload never enters reads 0. *)

open Util

(* The pipeline stages: metric name, and the Table 2/3 name their timings
   and spans carry. *)
let stage_names =
  [ ("static_prefilter", "static-prefilter");
    ("memstate", "Memory State Analysis");
    ("membug", "Memory Bug Detection");
    ("taint", "Input/Taint Analysis");
    ("isolation", "Input Isolation");
    ("slicing", "Dynamic Slicing") ]

let stages = List.map fst stage_names

let ns_stages = [ "membug"; "taint"; "slicing" ]

(* Spans whose self time is reported: the benchmark's own spans around its
   calls, and the spans the program already emits. The scheduler's per-host
   "serve" spans stay open while other hosts run in between, so their
   durations are not busy time and are left out. *)
let self_spans =
  [ ("bench.request", "bench.request");
    ("bench.attack", "bench.attack");
    ("bench.round", "bench.round");
    ("bench.create", "bench.create");
    ("bench.load", "bench.load");
    ("bench.forensics", "bench.forensics");
    ("checkpoint", "checkpoint");
    ("attack", "attack") ]
  @ stage_names
  @ [ ("recovery", "recovery");
    ("window", "window");
    ("barrier", "barrier") ]

let catalogue =
  [ ("calib_ns", "ns");
    ("vm.instructions", "count");
    ("vm.ns_per_instr", "ns");
    ("vm.ns_per_instr_calib", "ratio");
    ("vm.block_share", "ratio");
    ("vm.slow_share", "ratio");
    ("checkpoint.taken", "count");
    ("checkpoint.take_us_p50", "us");
    ("checkpoint.cow_copies", "count") ]
  @ List.concat_map
      (fun s -> [ ("stage." ^ s ^ ".ms", "ms"); ("stage." ^ s ^ ".instrs", "count") ])
      stages
  @ List.concat_map
      (fun s ->
        [ ("stage." ^ s ^ ".ns_per_instr", "ns");
          ("stage." ^ s ^ ".ns_per_instr_calib", "ratio") ])
      ns_stages
  @ [ ("stage.replay_msgs", "count");
      ("attack.first_vsef_ms_p50", "ms");
      ("attack.best_vsef_ms_p50", "ms");
      ("recovery.count", "count");
      ("recovery.ms_p50", "ms");
      ("recovery.replayed_msgs", "count");
      ("antibody.vsefs", "count");
      ("vsef.hooked_pcs", "count");
      ("vsef.veto_ms_p50", "ms");
      ("antibody.validate_ms", "ms");
      ("antibody.deploy_us", "us");
      ("process.load_ms", "ms");
      ("process.template_ms", "ms");
      ("process.instantiate_us", "us");
      ("process.retained_words", "words");
      ("sched.steps", "count");
      ("sched.parks", "count");
      ("sched.instructions", "count");
      ("cluster.windows", "count");
      ("cluster.exchanged", "count");
      ("cluster.deferred", "count");
      ("cluster.window_ms_p50", "ms");
      ("cluster.barrier_ms", "ms");
      ("cluster.idle_share", "ratio");
      ("defense.crashes", "count");
      ("defense.blocked", "count");
      ("defense.analyses", "count");
      ("defense.rejected", "count");
      ("outbreak.infected_pct", "%");
      ("outbreak.antibody_vms", "vms");
      ("forensics.reconstruct_ms", "ms");
      ("forensics.edges", "count");
      ("obs.overhead_pct", "%");
      ("obs.events", "count") ]
  @ List.map (fun (k, _) -> ("self_ms." ^ k, "ms")) self_spans

(* Numbers read off the recorded spans of a traced pass. *)
let from_spans () =
  let tbl = span_stats () in
  let p50 name = median (span_durs_ms tbl name) in
  let count name =
    match Hashtbl.find_opt tbl name with Some s -> s.count | None -> 0
  in
  [ ("checkpoint.take_us_p50", p50 "checkpoint" *. 1000.);
    ("recovery.count", float_of_int (count "recovery"));
    ("recovery.ms_p50", p50 "recovery");
    ("cluster.window_ms_p50", p50 "window") ]
  @ List.map
      (fun (k, name) ->
        ( "self_ms." ^ k,
          match Hashtbl.find_opt tbl name with
          | Some s -> s.self_us /. 1000.
          | None -> 0. ))
      self_spans

(* Host creation, measured from outside: one full template load, then
   copy-on-write instances of it; retained words are the heap words each
   additional instance keeps reachable. *)
let process_probe ~seed keys =
  let per_app key =
    let e = Apps.Registry.find key in
    let compiled = e.Apps.Registry.r_compile () in
    let tpl, tpl_s =
      timed (fun () -> Osim.Process.template ~aslr:true ~seed compiled)
    in
    let insts = List.init 16 (fun _ -> timed (fun () -> Osim.Process.instantiate tpl)) in
    let procs = List.map fst insts in
    let words l = float_of_int (Obj.reachable_words (Obj.repr l)) in
    let retained =
      (words procs -. words [ List.hd procs ]) /. float_of_int (List.length procs - 1)
    in
    (tpl_s *. 1000., List.map (fun (_, s) -> s *. 1e6) insts, retained)
  in
  let rs = List.map per_app keys in
  [ ("process.template_ms", median (List.map (fun (t, _, _) -> t) rs));
    ("process.instantiate_us", median (List.concat_map (fun (_, i, _) -> i) rs));
    ("process.retained_words", median (List.map (fun (_, _, w) -> w) rs)) ]
