(* Differential testing of input isolation.

   [Sweeper.Orchestrator.isolation_stage] isolates a stateful exploit
   stream by a power-of-two suffix search followed by a greedy pass over
   the suffix it found; [Oracle.Isolation.run] is the original greedy
   minimization over the whole suspect window, kept verbatim as the
   reference. Both run on the same replay window and must report the same
   responsible messages and stream-only flag: on random cvs windows (warm
   history, benign messages between the two exploit messages, ASLR
   layout), on the taint shortcut (apache1, squid), on the alone path
   (apache2), and on the suffix search's worst case. The stage's replay
   accounting is held to its bound on a 200-message warm cvs window. *)

module O = Sweeper.Orchestrator
module Stage = Sweeper.Stage
module Int_set = Stage.Int_set

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ids = Alcotest.(check (list int))

let compiled =
  let cache = Hashtbl.create 4 in
  fun key ->
    match Hashtbl.find_opt cache key with
    | Some c -> c
    | None ->
      let c = (Apps.Registry.find key).Apps.Registry.r_compile () in
      Hashtbl.add cache key c;
      c

(* Boot [key] on layout [seed], serve [warm] benign messages, then the
   canonical exploit with the messages [between] after its first message.
   Returns the context the pipeline would start from at the crash, or the
   reason there is none. *)
let window ?(between = []) ~seed ~warm key =
  let proc = Osim.Process.load ~aslr:true ~seed (compiled key) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  let rec feed = function
    | [] -> Error "the exploit did not crash"
    | m :: rest -> (
      match Osim.Server.handle server m with
      | `Served _ -> feed rest
      | `Crashed (_, f) -> Ok (Stage.init ~app:key server f)
      | _ -> Error "a message was neither served nor crashed")
  in
  let exploit =
    (Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 key)
      .Apps.Exploits.x_messages
  in
  let attack =
    match exploit with
    | first :: rest -> (first :: between) @ rest
    | [] -> between
  in
  feed (Apps.Registry.workload ~seed key warm @ attack)

let window_exn ?between ~seed ~warm key =
  match window ?between ~seed ~warm key with
  | Ok cx -> cx
  | Error e -> Alcotest.fail (key ^ ": " ^ e)

(* The stage's and the oracle's isolation of the same window. *)
let both cx =
  let stage =
    Option.get (Stage.run O.isolation_stage cx).Stage.cx_isolation
  in
  (stage, Oracle.Isolation.run cx)

let agree what cx =
  let (ids, stream), (oids, ostream) = both cx in
  check_ids (what ^ ": isolated messages") oids ids;
  check_bool (what ^ ": stream-only flag") ostream stream;
  (ids, stream)

(* ------------------------------------------------------------------ *)
(* Random cvs windows                                                  *)
(* ------------------------------------------------------------------ *)

let cvs_qcheck =
  QCheck.Test.make ~name:"suffix search == whole-window greedy (random cvs)"
    ~count:25
    QCheck.(triple (int_bound 200) (int_bound 60) (int_bound 0xFFFF))
    (fun (warm, between, seed) ->
      let between = Apps.Registry.workload ~seed:(seed + 1) "cvs" between in
      match window ~between ~seed ~warm "cvs" with
      | Error e -> QCheck.Test.fail_report e
      | Ok cx ->
        let stage, oracle = both cx in
        if stage = oracle then true
        else
          QCheck.Test.fail_reportf "stage [%s] stream=%b, oracle [%s] stream=%b"
            (String.concat "," (List.map string_of_int (fst stage)))
            (snd stage)
            (String.concat "," (List.map string_of_int (fst oracle)))
            (snd oracle))

(* ------------------------------------------------------------------ *)
(* Directed cases                                                      *)
(* ------------------------------------------------------------------ *)

(* With the taint stage run first, apache1 and squid take the shortcut:
   the blamed messages are the isolation. *)
let taint_path key () =
  let cx = window_exn ~seed:7 ~warm:10 key in
  let cx = Stage.run_pipeline [ O.static_stage; O.taint_stage ] cx in
  let ids, stream = agree key cx in
  check_bool "taint blamed a message" true (ids <> []);
  check_bool "not a stream" false stream

(* apache2's NULL dereference carries no taint: each suspect is replayed
   alone and the exploit message crashes by itself. *)
let alone_path () =
  let cx = window_exn ~seed:7 ~warm:10 "apache2" in
  let cx = Stage.run_pipeline [ O.static_stage; O.taint_stage ] cx in
  let ids, stream = agree "apache2" cx in
  check_int "one message crashes alone" 1 (List.length ids);
  check_bool "not a stream" false stream

(* The first exploit message opens the window and no benign message after
   it switches directory, so the crash needs the window's first message:
   the search runs up to the whole window before a suffix crashes. *)
let worst_case () =
  let between =
    List.filter
      (fun m -> not (String.starts_with ~prefix:"Directory" m))
      (Apps.Registry.workload ~seed:12 "cvs" 80)
  in
  let cx = window_exn ~between ~seed:11 ~warm:0 "cvs" in
  let suspects = cx.Stage.cx_suspects in
  let ids, stream = agree "cvs" cx in
  check_bool "stream" true stream;
  check_ids "the window's first and last messages"
    [ List.hd suspects; List.nth suspects (List.length suspects - 1) ]
    ids

(* ------------------------------------------------------------------ *)
(* Replay accounting                                                   *)
(* ------------------------------------------------------------------ *)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* On a 200-message warm cvs window the stream phase arms O(N) messages,
   where the whole-window greedy armed about N²/2; the stage publishes
   its replays as counters and as args on its span. *)
let accounting () =
  let cx = window_exn ~seed:5 ~warm:200 "cvs" in
  let suspects = cx.Stage.cx_suspects in
  let n = List.length suspects in
  let all = Int_set.of_list suspects in
  let replays = ref 0 and armed = ref 0 in
  let crashes c =
    incr replays;
    armed := !armed + Int_set.cardinal c;
    Stage.Replay.crashes ~skip:(Int_set.diff all c) cx
  in
  let stream = O.minimize_stream ~crashes suspects in
  check_bool "stream isolated" true (stream <> None);
  check_bool
    (Printf.sprintf "stream phase armed %d messages, bound 3N = %d" !armed
       (3 * n))
    true
    (!armed <= 3 * n);
  (* The stage adds the alone phase: N replays of one message each. *)
  let r0 = counter "sweeper_isolation_replays_total"
  and m0 = counter "sweeper_isolation_replayed_msgs_total" in
  Obs.Trace.clear ();
  Obs.Trace.enable ();
  let cx' =
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        Stage.run O.isolation_stage cx)
  in
  check_ids "same isolation" (Option.get stream)
    (fst (Option.get cx'.Stage.cx_isolation));
  let dr = counter "sweeper_isolation_replays_total" - r0
  and dm = counter "sweeper_isolation_replayed_msgs_total" - m0 in
  check_int "replays counted" (n + !replays) dr;
  check_int "messages counted" (n + !armed) dm;
  match
    List.find_opt
      (fun e -> e.Obs.Trace.ev_name = O.isolation_stage.Stage.name)
      (Obs.Trace.events ())
  with
  | None -> Alcotest.fail "no isolation span"
  | Some e ->
    let arg k = List.assoc_opt k e.Obs.Trace.ev_args in
    Alcotest.(check (option string)) "span replays" (Some (string_of_int dr))
      (arg "replays");
    Alcotest.(check (option string)) "span replayed_msgs"
      (Some (string_of_int dm)) (arg "replayed_msgs")

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(Oracle.Recipe.qcheck_rand ()) in
  Alcotest.run "isolation-diff"
    [
      ("differential", [ qt cvs_qcheck ]);
      ( "directed",
        [
          Alcotest.test_case "apache1 taint shortcut agrees" `Quick
            (taint_path "apache1");
          Alcotest.test_case "squid taint shortcut agrees" `Quick
            (taint_path "squid");
          Alcotest.test_case "apache2 alone path agrees" `Quick alone_path;
          Alcotest.test_case "cvs exploit opening the window agrees" `Quick
            worst_case;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "stream phase arms at most 3N messages" `Quick
            accounting;
        ] );
    ]
