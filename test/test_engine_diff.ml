(* Differential testing of the replay engine's clients.

   [Sweeper.Slice] (trace + offline demand walk) and [Sweeper.Membug]
   (fast-path actions at stores, pushes, calls and returns) run on the
   shared [Sweeper.Engine]; [Oracle.Slice] and [Oracle.Membug] are the
   original global-hook engines kept verbatim. Every pair replays the same
   image from the same state and must agree on everything they report: the
   full slice summary and instruction count, forward slices, and the
   membug report (findings in order, fault, instructions). Each engine
   replay is also audited: the retirement counters it moved (block + fast
   + slow) must add up to the instructions it executed. *)

module Recipe = Oracle.Recipe

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Comparable views                                                    *)
(* ------------------------------------------------------------------ *)

let slice_view (r : Sweeper.Slice.result) =
  let s = r.Sweeper.Slice.sl_summary in
  ( s.Sweeper.Slice.s_nodes,
    s.Sweeper.Slice.s_slice_size,
    Sweeper.Slice.Int_set.elements s.Sweeper.Slice.s_pcs,
    Sweeper.Slice.Int_set.elements s.Sweeper.Slice.s_msgs,
    s.Sweeper.Slice.s_fault_pc,
    r.Sweeper.Slice.sl_instructions )

let forward_view (f : Sweeper.Slice.forward) =
  (f.Sweeper.Slice.fw_size, Sweeper.Slice.Int_set.elements f.Sweeper.Slice.fw_pcs)

let membug_view (r : Sweeper.Membug.report) =
  ( r.Sweeper.Membug.m_findings,
    r.Sweeper.Membug.m_fault,
    r.Sweeper.Membug.m_instructions )

let taint_view (r : Sweeper.Taint.result) =
  ( Sweeper.Taint.verdict_to_string r.Sweeper.Taint.t_verdict,
    r.Sweeper.Taint.t_prop_pcs,
    r.Sweeper.Taint.t_instructions )

(* Run [f] on [proc] and check the retirement audit over that replay. *)
let audited (proc : Osim.Process.t) f =
  let cpu = proc.Osim.Process.cpu in
  let retired () =
    cpu.Vm.Cpu.block_retired + cpu.Vm.Cpu.fast_retired + cpu.Vm.Cpu.slow_retired
  in
  let r0 = retired () and i0 = cpu.Vm.Cpu.icount in
  let r = f proc in
  let ok = retired () - r0 = cpu.Vm.Cpu.icount - i0 in
  (r, ok)

(* ------------------------------------------------------------------ *)
(* Engine vs oracle on one replay window                               *)
(* ------------------------------------------------------------------ *)

(* [fresh ()] yields a process at the start of the replay window, in the
   same state every time. Returns the failures found, as text. *)
let compare_all ?fuel fresh =
  let failures = ref [] in
  let fail what = failures := what :: !failures in
  let same what a b = if a <> b then fail what in
  let (sl, ok1) = audited (fresh ()) (Sweeper.Slice.run_session ?fuel) in
  let (r, ok2) = audited (fresh ()) (Sweeper.Slice.run ?fuel) in
  let osl = Oracle.Slice.run_session ?fuel (fresh ()) in
  let oracle_slice =
    slice_view
      { Sweeper.Slice.sl_summary = osl.Oracle.Slice.backward;
        sl_instructions = osl.Oracle.Slice.graph.Oracle.Slice.count }
  in
  if not (ok1 && ok2) then fail "slice retirement audit";
  same "slice run" (slice_view r) oracle_slice;
  same "slice session"
    (slice_view
       { Sweeper.Slice.sl_summary = sl.Sweeper.Slice.backward;
         sl_instructions = r.Sweeper.Slice.sl_instructions })
    oracle_slice;
  same "slice outcome" sl.Sweeper.Slice.outcome osl.Oracle.Slice.outcome;
  (* Forward slices from every message the replay received, plus one it
     never saw. *)
  let msgs =
    -1 :: Sweeper.Slice.Int_set.elements
            (Sweeper.Slice.Int_set.union
               sl.Sweeper.Slice.backward.Sweeper.Slice.s_msgs
               (Sweeper.Slice.Int_set.of_list [ 0; 1 ]))
  in
  List.iter
    (fun msg_id ->
      same
        (Printf.sprintf "forward slice from message %d" msg_id)
        (forward_view (Sweeper.Slice.forward_from_message sl ~msg_id))
        (forward_view (Oracle.Slice.forward_from_message osl ~msg_id)))
    msgs;
  let (m, ok3) = audited (fresh ()) (Sweeper.Membug.run ?fuel) in
  if not ok3 then fail "membug retirement audit";
  same "membug report" (membug_view m)
    (membug_view (Oracle.Membug.run ?fuel (fresh ())));
  let (t, ok4) = audited (fresh ()) (Sweeper.Taint.run ?fuel) in
  if not ok4 then fail "taint retirement audit";
  same "taint result" (taint_view t)
    (taint_view (Oracle.Taint.run ?fuel (fresh ())));
  List.rev !failures

let recipe_fresh r =
  let app = Recipe.compile r in
  let msg = Recipe.message_of r in
  fun () -> Recipe.load_and_poke app msg

let expect_agree failures =
  match failures with
  | [] -> ()
  | l -> Alcotest.fail ("engines disagree: " ^ String.concat "; " l)

let diff_qcheck =
  QCheck.Test.make ~name:"engine clients == hook oracles (random programs)"
    ~count:30 (Recipe.arbitrary ()) (fun r ->
      match compare_all (recipe_fresh r) with
      | [] -> true
      | l -> QCheck.Test.fail_report (String.concat "; " l))

(* ------------------------------------------------------------------ *)
(* Directed cases                                                      *)
(* ------------------------------------------------------------------ *)

let directed r () = expect_agree (compare_all (recipe_fresh r))

(* The heap recipes must actually exercise membug's heap checks. *)
let membug_finds r pred () =
  let m = Sweeper.Membug.run ((recipe_fresh r) ()) in
  check_bool "expected finding" true
    (List.exists pred m.Sweeper.Membug.m_findings)

(* Fuel runs out mid-replay: both engines stop on the same instruction. *)
let fuel_cut () =
  let fresh = recipe_fresh Recipe.clean in
  let s = Sweeper.Slice.run_session ~fuel:777 (fresh ()) in
  check_bool "out of fuel" true (s.Sweeper.Slice.outcome = Vm.Cpu.Out_of_fuel);
  check_int "trace length" 777 s.Sweeper.Slice.backward.Sweeper.Slice.s_nodes;
  expect_agree (compare_all ~fuel:777 fresh)

(* A clean end slices from the last retired instruction: it is in the
   slice, and the slice's fault pc is where the replay stopped. *)
let clean_end () =
  let fresh = recipe_fresh Recipe.clean in
  let proc = fresh () in
  let s = Sweeper.Slice.run_session proc in
  check_bool "clean end" true
    (match s.Sweeper.Slice.outcome with
    | Vm.Cpu.Halted | Vm.Cpu.Blocked -> true
    | _ -> false);
  let b = s.Sweeper.Slice.backward in
  check_bool "root in slice" true (b.Sweeper.Slice.s_slice_size >= 1);
  check_int "fault pc is the final pc" proc.Osim.Process.cpu.Vm.Cpu.pc
    b.Sweeper.Slice.s_fault_pc;
  expect_agree (compare_all fresh)

(* Foreign instrumentation forces the hooked interpreter: every replayed
   instruction retires on the slow path, the foreign hooks keep firing,
   and results still equal the oracles'. *)
let with_foreign_hooks attach () =
  let r = Recipe.smash in
  let base = recipe_fresh r in
  let fired = ref 0 in
  let fresh () =
    let proc = base () in
    attach proc fired;
    proc
  in
  let proc = fresh () in
  let cpu = proc.Osim.Process.cpu in
  let slow0 = cpu.Vm.Cpu.slow_retired and i0 = cpu.Vm.Cpu.icount in
  let hooks0 = Vm.Cpu.global_hook_count cpu in
  fired := 0;
  ignore (Sweeper.Membug.run proc : Sweeper.Membug.report);
  check_int "every instruction on the hooked path"
    (cpu.Vm.Cpu.icount - i0)
    (cpu.Vm.Cpu.slow_retired - slow0);
  check_bool "foreign hook fired" true (!fired > 0);
  check_int "engine hook detached" hooks0 (Vm.Cpu.global_hook_count cpu);
  expect_agree (compare_all fresh)

(* With no compiled table attached there are no single closures to
   dispatch: the engine takes the same hooked-interpreter fallback, and
   every client still equals its oracle. *)
let without_table () =
  let base = recipe_fresh Recipe.smash in
  let fresh () =
    let proc = base () in
    Vm.Cpu.clear_blocks proc.Osim.Process.cpu;
    proc
  in
  let proc = fresh () in
  let cpu = proc.Osim.Process.cpu in
  let slow0 = cpu.Vm.Cpu.slow_retired and i0 = cpu.Vm.Cpu.icount in
  let hooks0 = Vm.Cpu.global_hook_count cpu in
  ignore (Sweeper.Taint.run proc : Sweeper.Taint.result);
  check_bool "replayed something" true (cpu.Vm.Cpu.icount > i0);
  check_int "every instruction on the reference path"
    (cpu.Vm.Cpu.icount - i0)
    (cpu.Vm.Cpu.slow_retired - slow0);
  check_int "engine hook detached" hooks0 (Vm.Cpu.global_hook_count cpu);
  expect_agree (compare_all fresh)

(* With the table attached and nobody else listening, the fused replay
   retires on the CPU's single-instruction closures: [fast_retired]
   grows, and block + fast + slow still equals executed. *)
let fused_retirement () =
  List.iter
    (fun (name, run) ->
      let proc = (recipe_fresh Recipe.smash) () in
      let cpu = proc.Osim.Process.cpu in
      let f0 = cpu.Vm.Cpu.fast_retired in
      let (), ok = audited proc run in
      check_bool (name ^ ": retired on single closures") true
        (cpu.Vm.Cpu.fast_retired > f0);
      check_bool (name ^ ": block + fast + slow == executed") true ok)
    [
      ("taint", fun p -> ignore (Sweeper.Taint.run p : Sweeper.Taint.result));
      ( "membug",
        fun p -> ignore (Sweeper.Membug.run p : Sweeper.Membug.report) );
      ("slicing", fun p -> ignore (Sweeper.Slice.run p : Sweeper.Slice.result));
    ]

let vsef_pc_hook (proc : Osim.Process.t) fired =
  let cpu = proc.Osim.Process.cpu in
  (* A pre-hook where the replay starts (the blocked receive, which
     re-executes) and one in [vuln]. *)
  ignore (Vm.Cpu.add_pc_hook cpu ~pc:cpu.Vm.Cpu.pc (fun _ -> incr fired));
  let pc = Vm.Asm.symbol proc.Osim.Process.app_image "vuln" in
  ignore (Vm.Cpu.add_pc_hook cpu ~pc (fun _ -> incr fired))

let flight_recorder (proc : Osim.Process.t) fired =
  let r = Obs.Recorder.attach proc.Osim.Process.cpu in
  proc.Osim.Process.flight <- Some r;
  ignore (Vm.Cpu.add_post_hook proc.Osim.Process.cpu (fun _ -> incr fired))

(* The four apps' canonical exploits, replayed from the rollback point the
   pipeline would use. *)
let app_exploit key () =
  let entry = Apps.Registry.find key in
  let proc = Osim.Process.load ~aslr:true ~seed:42 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload key 10);
  let exploit = Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 key in
  let fault = ref None in
  List.iter
    (fun m ->
      match Osim.Server.handle server m with
      | `Crashed (_, f) -> fault := Some f
      | _ -> ())
    exploit.Apps.Exploits.x_messages;
  match !fault with
  | None -> Alcotest.fail (key ^ ": exploit did not crash")
  | Some f ->
    let cx = Sweeper.Stage.init ~app:key server f in
    let fresh () = Sweeper.Stage.Replay.analyze cx Fun.id in
    expect_agree (compare_all fresh)

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(Recipe.qcheck_rand ()) in
  Alcotest.run "engine-diff"
    [
      ("differential", [ qt diff_qcheck ]);
      ( "directed",
        [
          Alcotest.test_case "clean run agrees" `Quick (directed Recipe.clean);
          Alcotest.test_case "stack smash agrees" `Quick (directed Recipe.smash);
          Alcotest.test_case "exec hijack agrees" `Quick (directed Recipe.exec);
          Alcotest.test_case "heap overflow agrees" `Quick
            (directed Recipe.heap_overflow);
          Alcotest.test_case "double free agrees" `Quick
            (directed Recipe.double_free);
          Alcotest.test_case "heap overflow is found" `Quick
            (membug_finds Recipe.heap_overflow (function
              | Sweeper.Membug.Heap_overflow _ -> true
              | _ -> false));
          Alcotest.test_case "double free is found" `Quick
            (membug_finds Recipe.double_free (function
              | Sweeper.Membug.Double_free _ -> true
              | _ -> false));
          Alcotest.test_case "write after free is found" `Quick
            (membug_finds Recipe.double_free (function
              | Sweeper.Membug.Dangling_write _ -> true
              | _ -> false));
          Alcotest.test_case "fuel runs out mid-replay" `Quick fuel_cut;
          Alcotest.test_case "clean end slices from the last instruction"
            `Quick clean_end;
          Alcotest.test_case "fused replay retires on single closures" `Quick
            fused_retirement;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "VSEF pc-hooks force the hooked path" `Quick
            (with_foreign_hooks vsef_pc_hook);
          Alcotest.test_case "flight recorder forces the hooked path" `Quick
            (with_foreign_hooks flight_recorder);
          Alcotest.test_case "no compiled table takes the hooked path" `Quick
            without_table;
        ] );
      ( "apps",
        List.map
          (fun key ->
            Alcotest.test_case (key ^ " exploit replay agrees") `Quick
              (app_exploit key))
          [ "apache1"; "apache2"; "cvs"; "squid" ] );
    ]
