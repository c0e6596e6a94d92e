(* Benchmark entry point.

     main.exe --workload serve|attack|outbreak --seed N --seconds S --trace 0|1

   --trace 0 runs the workload for S seconds with tracing off and prints
   the end-to-end metrics. --trace 1 runs it untraced for S/2 seconds,
   then again with Obs.Trace on for S/2 seconds, and prints the per-layer
   metrics of the traced pass plus the tracing overhead between the two.
   The last line of standard output is the result object; the line before
   it is a detail record (machine, sample counts, raw and scaled
   end-to-end values, exact-repeat counters, failures). *)

open Util

let end_to_end =
  [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("step_ms_p50", "ms");
    ("step_ms_mean", "ms"); ("benign_us_p50", "us"); ("benign_us_p99", "us") ]

(* workload -> runner, the apps its host-creation probe loads, and the
   domains it runs on (each calibration sample runs on as many) *)
let workloads =
  let all = List.map (fun e -> e.Apps.Registry.r_key) Apps.Registry.all in
  [ ("serve", (Serve.run, all, 1));
    ("attack", (Attack.run, all, 1));
    ("outbreak", (Outbreak.run, [ "apache1" ], Outbreak.domains)) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload serve|attack|outbreak --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem_assoc !workload workloads) then usage ();
  if !trace <> 0 && !trace <> 1 then usage ();
  (!workload, !seed, !seconds, !trace = 1)

(* JSON number with every digit; non-finite values are not JSON. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let str s = Obs.Json.to_string (Obs.Json.Str s)
let obj f l = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ f v) l) ^ "}"
let arr l = "[" ^ String.concat ", " (List.map str l) ^ "]"

let metrics_json ms =
  obj
    (fun (u, v) -> Printf.sprintf "{\"value\": %s, \"unit\": %s}" (num v) (str u))
    (List.map (fun (k, u, v) -> (k, (u, v))) ms)

(* The traced pass: per-layer metrics, plus the drift of its exact
   counters from the untraced pass's (tracing must not change behaviour). *)
let traced_pass ~run ~seed ~seconds ~apps (untraced : pass) t =
  Calib.start ();
  Obs.Trace.clear ();
  Obs.Trace.enable ();
  let p = run ~seed ~budget:(seconds /. 2.) ~traced:true t in
  Obs.Trace.disable ();
  let calib = Calib.ns () in
  let events = Obs.Trace.event_count () in
  let spans = Layers.from_spans () in
  Obs.Trace.clear ();
  let drift =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k p.exact with
        | Some v' when v <> v' -> Some (Printf.sprintf "%s: untraced %s, traced %s" k v v')
        | _ -> None)
      untraced.exact
  in
  let overhead =
    100.
    *. (List.assoc "step_ms_mean" p.e2e /. List.assoc "step_ms_mean" untraced.e2e -. 1.)
  in
  let probe = Layers.process_probe ~seed apps in
  let exact =
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> (k, f)) (float_of_string_opt v))
      p.exact
  in
  let ns k = Option.value ~default:0. (List.assoc_opt k p.layer) in
  let derived =
    [ ("calib_ns", calib); ("obs.overhead_pct", overhead); ("obs.events", float_of_int events) ]
    @ List.map
        (fun k -> (k ^ "_calib", ns k /. calib))
        ("vm.ns_per_instr" :: List.map (fun s -> "stage." ^ s ^ ".ns_per_instr") Layers.ns_stages)
  in
  let sources = [ p.layer; exact; spans; probe; derived ] in
  let value k = Option.value ~default:0. (List.find_map (List.assoc_opt k) sources) in
  (List.map (fun (k, u) -> (k, u, value k)) Layers.catalogue, events, calib, drift)

let () =
  let workload, seed, seconds, traced = parse_args () in
  let run, apps, domains = List.assoc workload workloads in
  Calib.parallel := domains;
  let t = tally () in
  Calib.start ();
  let untraced =
    run ~seed ~budget:(if traced then seconds /. 2. else seconds) ~traced:false t
  in
  let metrics, events, calib, drift =
    if traced then traced_pass ~run ~seed ~seconds ~apps untraced t
    else
      ( List.map (fun (k, u) -> (k, u, List.assoc k untraced.e2e)) end_to_end,
        0, Calib.ns (), [] )
  in
  let key =
    Printf.sprintf "%s-%d-%s" workload seed (Digest.to_hex (Digest.file Sys.executable_name))
  in
  let drift = drift @ check_exact ~dir:"perfbench/.state" ~key untraced.exact in
  let detail =
    Printf.sprintf
      "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
       \"machine\": %s, \"samples\": %s, \"exact\": %s, \"drift\": %s, \
       \"errors\": %s, \"trace_events\": %d, \"end_to_end_raw\": %s, \
       \"end_to_end_at_ref\": %s}"
      (str workload) seed (num seconds) traced (machine_json ~calib)
      (obj string_of_int untraced.samples)
      (obj str untraced.exact) (arr drift) (arr (List.rev t.errors)) events
      (obj num untraced.e2e_raw) (obj num untraced.e2e)
  in
  print_endline detail;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (t.failed = 0 && drift = [])
    t.attempted
    (t.failed + List.length drift)
    (metrics_json metrics)
