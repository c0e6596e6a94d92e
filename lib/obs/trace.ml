(** Span tracer: begin/end spans stamped with both the wall clock and the
    simulation's virtual clock (milliseconds derived from instruction
    counts via [Osim.Server.instrs_per_ms]), exportable as Chrome
    trace-event JSON openable in Perfetto.

    Disabled is the default and costs one branch per call site: [begin_span]
    returns a shared dead span and [end_span]/[instant] return immediately.
    Nothing here is touched from the VM fast path at all. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_pid : int;
  sp_tid : int;
  sp_t0_us : float;
  sp_vts_ms : float; (* nan when absent *)
  sp_args : (string * string) list;
  sp_live : bool;
}

type event = {
  ev_name : string;
  ev_cat : string;
  ev_instant : bool;
  ev_ph : string; (* Chrome phase: "X", "i", "s" (flow start), "f" *)
  ev_flow_id : int; (* 0 unless a flow event *)
  ev_pid : int;
  ev_tid : int;
  ev_ts_us : float; (* relative to trace start *)
  ev_dur_us : float; (* 0 for instants *)
  ev_vts_ms : float; (* nan when absent *)
  ev_vts_end_ms : float; (* nan when absent *)
  ev_args : (string * string) list;
}

let enabled_flag = ref false
let base_us = ref 0.
let events_rev : event list ref = ref []
let n_events = ref 0
let enabled () = !enabled_flag
let now_us () = Unix.gettimeofday () *. 1e6

(* The recorder is shared global state; sharded runs emit spans from
   several domains at once, so every buffer mutation (and consistent
   read) takes this lock. The disabled path never touches it. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let clear () =
  locked (fun () ->
      events_rev := [];
      n_events := 0;
      base_us := now_us ())

let enable () =
  locked (fun () ->
      if not !enabled_flag then begin
        enabled_flag := true;
        if !base_us = 0. then base_us := now_us ()
      end)

let disable () = locked (fun () -> enabled_flag := false)

let dead_span =
  { sp_name = ""; sp_cat = ""; sp_pid = 0; sp_tid = 0; sp_t0_us = 0.;
    sp_vts_ms = Float.nan; sp_args = []; sp_live = false }

let push ev =
  locked (fun () ->
      events_rev := ev :: !events_rev;
      incr n_events)

let begin_span ?(cat = "sweeper") ?(pid = 0) ?(tid = 0) ?vts_ms
    ?(args = []) name =
  if not !enabled_flag then dead_span
  else
    { sp_name = name; sp_cat = cat; sp_pid = pid; sp_tid = tid;
      sp_t0_us = now_us ();
      sp_vts_ms = (match vts_ms with Some v -> v | None -> Float.nan);
      sp_args = args; sp_live = true }

let end_span ?vts_ms ?(args = []) sp =
  if sp.sp_live && !enabled_flag then
    push
      { ev_name = sp.sp_name; ev_cat = sp.sp_cat; ev_instant = false;
        ev_ph = "X"; ev_flow_id = 0;
        ev_pid = sp.sp_pid; ev_tid = sp.sp_tid;
        ev_ts_us = sp.sp_t0_us -. !base_us;
        ev_dur_us = Float.max 0. (now_us () -. sp.sp_t0_us);
        ev_vts_ms = sp.sp_vts_ms;
        ev_vts_end_ms = (match vts_ms with Some v -> v | None -> Float.nan);
        ev_args = sp.sp_args @ args }

let instant ?(cat = "sweeper") ?(pid = 0) ?(tid = 0) ?vts_ms ?(args = [])
    name =
  if !enabled_flag then
    push
      { ev_name = name; ev_cat = cat; ev_instant = true; ev_ph = "i";
        ev_flow_id = 0; ev_pid = pid;
        ev_tid = tid; ev_ts_us = now_us () -. !base_us; ev_dur_us = 0.;
        ev_vts_ms = (match vts_ms with Some v -> v | None -> Float.nan);
        ev_vts_end_ms = Float.nan; ev_args = args }

(* Flow events: a "s"/"f" pair sharing [id] draws an arrow between the
   duration spans enclosing each endpoint — the sender→receiver link in
   message-passing traces. *)
let flow_event ph ?(cat = "flow") ?(pid = 0) ?(tid = 0) ?vts_ms ?(args = [])
    ~id name =
  if !enabled_flag then
    push
      { ev_name = name; ev_cat = cat; ev_instant = false; ev_ph = ph;
        ev_flow_id = id; ev_pid = pid; ev_tid = tid;
        ev_ts_us = now_us () -. !base_us; ev_dur_us = 0.;
        ev_vts_ms = (match vts_ms with Some v -> v | None -> Float.nan);
        ev_vts_end_ms = Float.nan; ev_args = args }

let flow_start = flow_event "s"
let flow_finish = flow_event "f"

let with_span ?cat ?pid ?tid ?vts_ms ?args name f =
  let sp = begin_span ?cat ?pid ?tid ?vts_ms ?args name in
  Fun.protect ~finally:(fun () -> end_span sp) f

(* Wall-time a thunk in milliseconds, recording a span only when tracing is
   enabled. The measurement is taken unconditionally so callers (Stage.run)
   can use this as their single timing source. *)
let timed ?cat ?pid ?tid ?vts_ms ?args ?(end_args = fun _ -> []) name f =
  if not !enabled_flag then begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  end
  else
    let sp = begin_span ?cat ?pid ?tid ?vts_ms ?args name in
    match f () with
    | r ->
      let dt_ms = (now_us () -. sp.sp_t0_us) /. 1000. in
      end_span ~args:(end_args r) sp;
      (r, dt_ms)
    | exception e ->
      end_span sp;
      raise e

let events () = locked (fun () -> List.rev !events_rev)
let event_count () = locked (fun () -> !n_events)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let event_json ev =
  let args =
    List.map (fun (k, v) -> (k, Json.Str v)) ev.ev_args
    @ (if Float.is_nan ev.ev_vts_ms then []
       else [ ("vts_ms", Json.Float ev.ev_vts_ms) ])
    @
    if Float.is_nan ev.ev_vts_end_ms then []
    else [ ("vts_end_ms", Json.Float ev.ev_vts_end_ms) ]
  in
  let phase_fields =
    match ev.ev_ph with
    | "i" -> [ ("s", Json.Str "t") ]
    | "s" -> [ ("id", Json.Int ev.ev_flow_id) ]
    | "f" -> [ ("id", Json.Int ev.ev_flow_id); ("bp", Json.Str "e") ]
    | _ -> [ ("dur", Json.Float ev.ev_dur_us) ]
  in
  Json.Obj
    ([ ("name", Json.Str ev.ev_name);
       ("cat", Json.Str ev.ev_cat);
       ("ph", Json.Str ev.ev_ph);
       ("ts", Json.Float ev.ev_ts_us);
     ]
    @ phase_fields
    @ [ ("pid", Json.Int ev.ev_pid);
        ("tid", Json.Int ev.ev_tid);
        ("args", Json.Obj args);
      ])

let to_chrome_json () =
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.List (List.map event_json (events ())));
         ("displayTimeUnit", Json.Str "ms");
       ])

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))
