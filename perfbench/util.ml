(* Shared plumbing for the benchmark: clocks, order statistics, the
   machine record, the calibration kernel, span analysis over Obs.Trace
   events, and the store that checks exact-repeat counters across runs. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Samples and order statistics                                        *)

(* A growable float buffer: latency samples of one run. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sum t =
    let acc = ref 0. in
    for i = 0 to t.n - 1 do
      acc := !acc +. t.a.(i)
    done;
    !acc

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Linear-interpolation percentile (p in 0..100) of a sorted array; nan
   when empty. *)
let percentile_sorted p s =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let pos = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let percentile p xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  percentile_sorted p s

let median xs = percentile 50. xs

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.

(* Run [f], returning its result and the elapsed wall seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Machine record and calibration                                      *)

(* Calibration. On a shared VM the same work runs up to 2x slower while
   the neighbours are busy, in spells from under a second to minutes. Three
   fixed kernels track that speed for three kinds of code:
   - [alu]: a store loop over an L1-resident table (interpreting requests);
   - [heap]: replacing entries of a persistent 64k-entry table, so each
     iteration allocates and writes into the major heap (analyses, loads);
   - [par]: the store loop on all of a multi-domain workload's domains at
     once, spawn and join included (community rounds).
   All three are sampled at start-up, at most every [every] seconds from
   the benchmark's loops, and around every long operation. Each timing is
   scaled to the kernel's reference speed (this VM when quiet) by the
   samples next to it; raw wall times are kept alongside. *)
module Calib = struct
  let ref_ns = 1.0
  let ref_heap_ns = 150.
  let ref_par_ns = 2.5
  let every = 0.05

  (* A long operation's speed is the mean of the samples taken within
     this many seconds of it. *)
  let window = 0.25

  (* Domains the workload runs on; [par] samples use all of them. *)
  let parallel = ref 1

  type sample = { at : float; alu : float; heap : float; par : float }

  let samples : sample list ref = ref []  (* newest first *)
  let current = ref ref_ns  (* smoothed [alu] speed *)
  let last = ref 0.
  let iters = 200_000

  let slice () =
    let tbl = Array.make 1024 0 in
    let t0 = now () in
    for i = 1 to iters do
      let j = i land 1023 in
      tbl.(j) <- tbl.(j) + i
    done;
    (now () -. t0) *. 1e9 /. float_of_int iters

  let heap_tbl : (int, int * int) Hashtbl.t = Hashtbl.create 65536
  let salt = ref 0

  let heap_slice () =
    let n = 20_000 in
    incr salt;
    let t0 = now () in
    for i = 1 to n do
      let k = ((i * 7919) + !salt) land 0xFFFF in
      Hashtbl.replace heap_tbl k (k, i)
    done;
    (now () -. t0) *. 1e9 /. float_of_int n

  let par_slice () =
    let t0 = now () in
    let others = List.init (!parallel - 1) (fun _ -> Domain.spawn slice) in
    ignore (slice ());
    List.iter (fun d -> ignore (Domain.join d)) others;
    (now () -. t0) *. 1e9 /. float_of_int iters

  let sample () =
    let heap = heap_slice () in
    let alu = slice () in
    let par = if !parallel <= 1 then alu else par_slice () in
    let at = now () in
    current := (match !samples with [] -> alu | _ -> (0.7 *. !current) +. (0.3 *. alu));
    samples := { at; alu; heap; par } :: !samples;
    last := at

  let start () =
    samples := [];
    for _ = 1 to 9 do
      sample ()
    done

  let tick () = if now () -. !last >= every then sample ()
  let mean_of f = mean (List.map f !samples)
  let ns () = mean_of (fun s -> s.alu)
  let count () = List.length !samples

  (* A short single-domain wall duration at the reference speed, by the
     smoothed recent [alu] speed. *)
  let scale dt = dt *. ref_ns /. !current

  type op = { t0 : float; t1 : float; raw : float; par : bool }

  (* Run a long operation between two fresh samples; [par] marks one that
     runs on all the workload's domains. *)
  let timed ?(par = false) f =
    sample ();
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    sample ();
    (r, { t0; t1; raw = t1 -. t0; par })

  (* A long operation's duration at the reference speed, by the samples
     taken within [window] seconds of it: [par] samples for a multi-domain
     operation, [heap] samples otherwise. Call once the run is over, so
     later samples count too. *)
  let at_ref op =
    let near =
      List.filter (fun s -> s.at >= op.t0 -. window && s.at <= op.t1 +. window) !samples
    in
    let near = if near = [] then !samples else near in
    let speed f = mean (List.map f near) in
    if op.par then op.raw *. ref_par_ns /. speed (fun s -> s.par)
    else op.raw *. ref_heap_ns /. speed (fun s -> s.heap)
end

let machine_json ~calib =
  let g = Gc.get () in
  Printf.sprintf
    "{\"cores\": %d, \"ocaml\": \"%s\", \"word_size\": %d, \"os\": \"%s\", \
     \"gc\": {\"minor_heap_words\": %d, \"space_overhead\": %d, \
     \"max_overhead\": %d}, \"calib_ns\": %.6f, \"calib_heap_ns\": %.6f, \
     \"calib_par_ns\": %.6f, \"calib_samples\": %d, \"calib_ref_ns\": %g, \
     \"calib_ref_heap_ns\": %g, \"calib_ref_par_ns\": %g}"
    (Domain.recommended_domain_count ())
    (String.escaped Sys.ocaml_version) Sys.word_size (String.escaped Sys.os_type)
    g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.max_overhead calib
    (Calib.mean_of (fun s -> s.Calib.heap))
    (Calib.mean_of (fun s -> s.Calib.par))
    (Calib.count ()) Calib.ref_ns Calib.ref_heap_ns Calib.ref_par_ns

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)

(* The tracer keeps every event in one unbounded global list; a traced
   pass stops recording once it holds this many. *)
let event_cap = 150_000

let trace_guard () =
  if Obs.Trace.enabled () && Obs.Trace.event_count () >= event_cap then
    Obs.Trace.disable ()

(* A benchmark-side span around one of its own calls into the program,
   recorded only while tracing is on. [pid] puts it on the lane of the
   server it drives so the program's own spans nest inside it. *)
let span ~traced ?(pid = 0) name f =
  if traced then Obs.Trace.with_span ~cat:"bench" ~pid name f else f ()

type span_stat = {
  mutable count : int;
  mutable durs_us : float list;
  mutable self_us : float;
}

(* Per-name duration and self time over the recorded complete spans. A
   span's children are the spans on its own (pid, tid) lane that lie
   inside its interval; self time is its duration minus theirs. Spans on
   other lanes (other hosts, other domains) never count as children. *)
let span_stats () =
  let tbl : (string, span_stat) Hashtbl.t = Hashtbl.create 32 in
  let stat name =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None ->
      let s = { count = 0; durs_us = []; self_us = 0. } in
      Hashtbl.replace tbl name s;
      s
  in
  let lanes = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.Obs.Trace.ev_ph = "X" then begin
        let k = (e.Obs.Trace.ev_pid, e.Obs.Trace.ev_tid) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt lanes k) in
        Hashtbl.replace lanes k (e :: prev)
      end)
    (Obs.Trace.events ());
  Hashtbl.iter
    (fun _ evs ->
      let evs =
        List.sort
          (fun (a : Obs.Trace.event) (b : Obs.Trace.event) ->
            match compare a.ev_ts_us b.ev_ts_us with
            | 0 -> compare b.ev_dur_us a.ev_dur_us
            | c -> c)
          evs
      in
      (* open spans: (end_us, name, children's total us, duration us) *)
      let stack = ref [] in
      let close (_, name, kids, dur) =
        let s = stat name in
        s.self_us <- s.self_us +. Float.max 0. (dur -. !kids)
      in
      List.iter
        (fun (e : Obs.Trace.event) ->
          let e_end = e.ev_ts_us +. e.ev_dur_us in
          let rec pop () =
            match !stack with
            | ((t_end, _, _, _) as top) :: rest when t_end < e_end -. 1e-3 ->
              close top;
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (_, _, kids, _) :: _ -> kids := !kids +. e.ev_dur_us
          | [] -> ());
          let s = stat e.ev_name in
          s.count <- s.count + 1;
          s.durs_us <- e.ev_dur_us :: s.durs_us;
          stack := (e_end, e.ev_name, ref 0., e.ev_dur_us) :: !stack)
        evs;
      List.iter close !stack)
    lanes;
  tbl

let span_durs_ms tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> List.map (fun d -> d /. 1000.) s.durs_us
  | None -> []

(* ------------------------------------------------------------------ *)
(* Exact-repeat counters                                               *)

(* Counters that must read the same on every run of one seed. The first
   run of a (workload, seed, binary) records them under [dir]; every
   later run compares against the record and returns each drift. *)
let check_exact ~dir ~key (counters : (string * string) list) =
  let path = Filename.concat dir key in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let recorded = ref [] in
    (try
       while true do
         let line = input_line ic in
         match String.index_opt line '=' with
         | Some i ->
           recorded :=
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
             :: !recorded
         | None -> ()
       done
     with End_of_file -> close_in ic);
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k !recorded with
        | Some v' when v' = v -> None
        | Some v' -> Some (Printf.sprintf "%s drifted: %s, recorded %s" k v v')
        | None -> Some (Printf.sprintf "%s missing from the record" k))
      counters
  end
  else begin
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    List.iter (fun (k, v) -> Printf.fprintf oc "%s=%s\n" k v) counters;
    close_out oc;
    Sys.rename tmp path;
    []
  end

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failures, newest first *)
}

let tally () = { attempted = 0; failed = 0; errors = [] }

(* Count one checked operation; [Some why] marks it failed. *)
let check t = function
  | None -> t.attempted <- t.attempted + 1
  | Some why ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if List.length t.errors < 8 then t.errors <- why :: t.errors

(* Retired instructions of a CPU, by tier: (block, fast, slow). These
   counters are monotonic across rollbacks, unlike [icount]. *)
let retired (cpu : Vm.Cpu.t) =
  (cpu.Vm.Cpu.block_retired, cpu.Vm.Cpu.fast_retired, cpu.Vm.Cpu.slow_retired)

let seed_mix seed parts =
  Hashtbl.hash (Array.to_list (Array.append [| seed; 0x5EE9 |] parts))
  land 0x3FFFFFFF

(* What one pass of a workload measured. *)
type pass = {
  e2e : (string * float) list;
      (** end-to-end metrics, by name, at the reference machine speed *)
  e2e_raw : (string * float) list;  (** the same, from raw wall times *)
  samples : (string * int) list;  (** samples behind each end-to-end metric *)
  layer : (string * float) list;  (** per-layer metrics *)
  exact : (string * string) list;  (** exact-repeat counters *)
}
