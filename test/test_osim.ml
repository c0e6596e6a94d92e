(* Tests for the OS simulation layer: the network log (filters, replay,
   quarantine), processes and syscalls, checkpoints/rollback, and the
   serving harness. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Netlog                                                              *)
(* ------------------------------------------------------------------ *)

let test_netlog_arrive_and_consume () =
  let t = Osim.Netlog.create () in
  check_bool "first id" true (Osim.Netlog.arrive t "a" = Ok 0);
  check_bool "second id" true (Osim.Netlog.arrive t "b" = Ok 1);
  (match Osim.Netlog.next_for_recv t with
  | Some m -> check_str "fifo order" "a" m.Osim.Netlog.m_payload
  | None -> Alcotest.fail "expected message");
  check_int "cursor advanced" 1 (Osim.Netlog.cursor t);
  ignore (Osim.Netlog.next_for_recv t);
  check_bool "drained" true (Osim.Netlog.next_for_recv t = None)

let test_netlog_filters () =
  let t = Osim.Netlog.create () in
  Osim.Netlog.add_filter t ~name:"block-x" (fun p -> String.length p > 0 && p.[0] = 'x');
  check_bool "filtered" true (Osim.Netlog.arrive t "xyz" = Error "block-x");
  check_bool "passes" true (Osim.Netlog.arrive t "abc" = Ok 0);
  check_int "one filter" 1 (Osim.Netlog.filter_count t);
  Osim.Netlog.remove_filter t ~name:"block-x";
  check_bool "after removal" true (Osim.Netlog.arrive t "xyz" = Ok 1)

let test_netlog_replay_and_skip () =
  let t = Osim.Netlog.create () in
  List.iter (fun p -> ignore (Osim.Netlog.arrive t p)) [ "m0"; "m1"; "m2"; "m3" ];
  (* Consume everything live. *)
  while Osim.Netlog.next_for_recv t <> None do () done;
  (* Replay from 0 up to 3, skipping message 1. *)
  Osim.Netlog.set_cursor t 0;
  Osim.Netlog.set_mode t
    (Osim.Netlog.Replay { upto = 3; skip = Osim.Netlog.Int_set.singleton 1 });
  let seen = ref [] in
  let rec drain () =
    match Osim.Netlog.next_for_recv t with
    | Some m ->
      seen := m.Osim.Netlog.m_payload :: !seen;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list string) "replayed without skipped" [ "m0"; "m2" ]
    (List.rev !seen);
  (* Back to live: message 3 is still there. *)
  Osim.Netlog.set_mode t Osim.Netlog.Live;
  match Osim.Netlog.next_for_recv t with
  | Some m -> check_str "live resumes after replay window" "m3" m.Osim.Netlog.m_payload
  | None -> Alcotest.fail "expected m3"

let test_netlog_quarantine_persists () =
  let t = Osim.Netlog.create () in
  List.iter (fun p -> ignore (Osim.Netlog.arrive t p)) [ "good"; "evil"; "good2" ];
  while Osim.Netlog.next_for_recv t <> None do () done;
  Osim.Netlog.quarantine t [ 1 ];
  Osim.Netlog.set_cursor t 0;
  Osim.Netlog.set_mode t
    (Osim.Netlog.Replay { upto = 3; skip = Osim.Netlog.Int_set.empty });
  let seen = ref [] in
  let rec drain () =
    match Osim.Netlog.next_for_recv t with
    | Some m -> seen := m.Osim.Netlog.m_payload :: !seen; drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list string) "quarantined never re-delivered"
    [ "good"; "good2" ] (List.rev !seen)

let test_netlog_consumed_since () =
  let t = Osim.Netlog.create () in
  List.iter (fun p -> ignore (Osim.Netlog.arrive t p)) [ "a"; "b"; "c" ];
  ignore (Osim.Netlog.next_for_recv t);
  ignore (Osim.Netlog.next_for_recv t);
  let since = Osim.Netlog.consumed_since t 1 in
  check_int "window size" 1 (List.length since);
  check_str "window content" "b" (List.hd since).Osim.Netlog.m_payload

(* ------------------------------------------------------------------ *)
(* Process + syscalls                                                  *)
(* ------------------------------------------------------------------ *)

(* An echo server in MiniC for process-level tests. *)
let echo_src =
  {|
  char buf[256];
  int main() {
    while (1) {
      int n = _recv(buf, 256);
      if (n < 0) { _exit(1); }
      _send(buf, n);
    }
    return 0;
  }
|}

let echo_proc ?(aslr = false) ?(seed = 1) () =
  Osim.Process.load ~aslr ~seed (Minic.Driver.compile_app ~name:"echo" echo_src)

let test_process_blocks_without_input () =
  let p = echo_proc () in
  check_bool "blocked" true (Osim.Process.run p = Vm.Cpu.Blocked)

let test_process_echo_roundtrip () =
  let p = echo_proc () in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p "ping");
  ignore (Osim.Process.run p);
  (match Osim.Process.committed_outputs p with
  | [ (0, "ping") ] -> ()
  | _ -> Alcotest.fail "expected one echoed response");
  ignore (Osim.Process.send_message p "pong");
  ignore (Osim.Process.run p);
  check_int "two responses" 2 (List.length (Osim.Process.committed_outputs p))

let test_process_output_commit_suppression () =
  let p = echo_proc () in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p "hello");
  ignore (Osim.Process.run p);
  (* Replay the same message: the response must not be duplicated. *)
  Osim.Netlog.set_cursor p.Osim.Process.net 0;
  Osim.Netlog.set_mode p.Osim.Process.net
    (Osim.Netlog.Replay { upto = 1; skip = Osim.Netlog.Int_set.empty });
  ignore (Osim.Process.run p);
  check_int "no duplicate response" 1
    (List.length (Osim.Process.committed_outputs p))

let test_process_sandbox_drops_outputs () =
  let p = echo_proc () in
  ignore (Osim.Process.run p);
  p.Osim.Process.sandbox <- true;
  ignore (Osim.Process.send_message p "quiet");
  ignore (Osim.Process.run p);
  check_int "sandboxed output dropped" 0
    (List.length (Osim.Process.committed_outputs p))

let test_process_flashback_random () =
  (* random results are logged; a re-execution from the log start returns
     the same values. *)
  let src =
    {|
    char buf[8];
    int r1;
    int r2;
    int main() {
      int n = _recv(buf, 8);
      r1 = _random();
      r2 = _random();
      n = _recv(buf, 8);
      return 0;
    }
  |}
  in
  let p = Osim.Process.load ~aslr:false ~seed:9 (Minic.Driver.compile_app ~name:"r" src) in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p "go");
  ignore (Osim.Process.run p);
  let addr_r1 = Hashtbl.find p.Osim.Process.data_symbols "r1" in
  let addr_r2 = Hashtbl.find p.Osim.Process.data_symbols "r2" in
  let v1 = Vm.Memory.load_word p.Osim.Process.mem addr_r1 in
  let v2 = Vm.Memory.load_word p.Osim.Process.mem addr_r2 in
  check_bool "two distinct randoms" true (v1 <> v2);
  (* Replay: rewind the syscall-result log and the message cursor. *)
  p.Osim.Process.sysres_pos <- 0;
  Osim.Netlog.set_cursor p.Osim.Process.net 0;
  Osim.Netlog.set_mode p.Osim.Process.net
    (Osim.Netlog.Replay { upto = 1; skip = Osim.Netlog.Int_set.empty });
  Vm.Memory.store_word p.Osim.Process.mem addr_r1 0;
  Vm.Memory.store_word p.Osim.Process.mem addr_r2 0;
  p.Osim.Process.cpu.Vm.Cpu.pc <- Vm.Asm.symbol p.Osim.Process.app_image "_start";
  Vm.Cpu.set_reg p.Osim.Process.cpu Vm.Isa.SP
    (p.Osim.Process.layout.Vm.Layout.stack_top - 16);
  p.Osim.Process.cpu.Vm.Cpu.halted <- false;
  ignore (Osim.Process.run p);
  check_int "replayed r1 deterministic" v1
    (Vm.Memory.load_word p.Osim.Process.mem addr_r1);
  check_int "replayed r2 deterministic" v2
    (Vm.Memory.load_word p.Osim.Process.mem addr_r2)

let test_process_exec_marks_compromise () =
  let src = {| int main() { _exec("evil"); return 0; } |} in
  let p = Osim.Process.load ~aslr:false ~seed:1 (Minic.Driver.compile_app ~name:"x" src) in
  ignore (Osim.Process.run p);
  check_bool "compromised" true (p.Osim.Process.compromised = Some "evil")

let test_process_console_log () =
  let src = {| int main() { _log("starting up"); return 0; } |} in
  let p = Osim.Process.load ~aslr:false ~seed:1 (Minic.Driver.compile_app ~name:"x" src) in
  ignore (Osim.Process.run p);
  check Alcotest.(list string) "console" [ "starting up" ] p.Osim.Process.console

let test_process_aslr_moves_libc () =
  let p1 = echo_proc ~aslr:true ~seed:1 () in
  let p2 = echo_proc ~aslr:true ~seed:2 () in
  check_bool "system address differs" true
    (Osim.Process.system_addr p1 <> Osim.Process.system_addr p2);
  let p3 = echo_proc ~aslr:false () in
  let p4 = echo_proc ~aslr:false ~seed:5 () in
  check_int "no-aslr deterministic" (Osim.Process.system_addr p3)
    (Osim.Process.system_addr p4)

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let counter_src =
  {|
  char buf[64];
  int count;
  char *scratch;
  int main() {
    count = 0;
    scratch = malloc(16);
    while (1) {
      int n = _recv(buf, 64);
      if (n < 0) { _exit(1); }
      count = count + 1;
      scratch[0] = (char)count;
      _send(buf, n);
    }
    return 0;
  }
|}

let counter_proc () =
  Osim.Process.load ~aslr:false ~seed:1
    (Minic.Driver.compile_app ~name:"counter" counter_src)

let count_of p =
  Vm.Memory.load_word p.Osim.Process.mem
    (Hashtbl.find p.Osim.Process.data_symbols "count")

let test_checkpoint_rollback_state () =
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p "a");
  ignore (Osim.Process.run p);
  let ck = Osim.Checkpoint.take p in
  ignore (Osim.Process.send_message p "b");
  ignore (Osim.Process.send_message p "c");
  ignore (Osim.Process.run p);
  check_int "count advanced" 3 (count_of p);
  Osim.Checkpoint.rollback p ck;
  check_int "count restored" 1 (count_of p);
  check_int "net cursor restored" 1 (Osim.Netlog.cursor p.Osim.Process.net)

let test_checkpoint_rollback_repeatable () =
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  let ck = Osim.Checkpoint.take p in
  for round = 1 to 3 do
    ignore (Osim.Process.send_message p (string_of_int round));
    ignore (Osim.Process.run p);
    check_bool "count moved" true (count_of p >= 1);
    Osim.Checkpoint.rollback p ck;
    check_int "count back to zero" 0 (count_of p)
  done

let test_checkpoint_heap_rollback () =
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  let ck = Osim.Checkpoint.take p in
  let brk_before = p.Osim.Process.layout.Vm.Layout.heap_brk in
  (* Allocations after the checkpoint... *)
  ignore (Vm.Alloc.malloc p.Osim.Process.mem p.Osim.Process.layout 4096);
  Osim.Checkpoint.rollback p ck;
  check_int "heap brk restored" brk_before p.Osim.Process.layout.Vm.Layout.heap_brk;
  (* ...and the allocator metadata is back too: same chunk again. *)
  let q1 = Vm.Alloc.malloc p.Osim.Process.mem p.Osim.Process.layout 4096 in
  Osim.Checkpoint.rollback p ck;
  let q2 = Vm.Alloc.malloc p.Osim.Process.mem p.Osim.Process.layout 4096 in
  check_bool "deterministic allocation after rollback" true (q1 = q2)

let test_checkpoint_ring () =
  let ring = Osim.Checkpoint.create_ring ~capacity:3 () in
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  for i = 1 to 5 do
    ignore (Osim.Process.send_message p (string_of_int i));
    ignore (Osim.Process.run p);
    Osim.Checkpoint.add ring (Osim.Checkpoint.take p)
  done;
  check_int "bounded" 3 (Osim.Checkpoint.count ring);
  (match Osim.Checkpoint.latest ring with
  | Some ck -> check_int "latest has all messages" 5 ck.Osim.Checkpoint.ck_net_cursor
  | None -> Alcotest.fail "expected latest");
  match Osim.Checkpoint.before_message ring ~msg_index:3 with
  | Some ck ->
    check_bool "finds checkpoint before message" true
      (ck.Osim.Checkpoint.ck_net_cursor <= 3)
  | None -> Alcotest.fail "expected checkpoint before message 3"

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let test_server_serves_and_checkpoints () =
  let p = counter_proc () in
  let config = { Osim.Server.checkpoint_interval_ms = 1; keep_checkpoints = 5 } in
  let server = Osim.Server.create ~config p in
  ignore (Osim.Server.run server);
  for i = 1 to 400 do
    match Osim.Server.handle server (string_of_int i) with
    | `Served _ -> ()
    | _ -> Alcotest.fail "expected served"
  done;
  check_bool "took periodic checkpoints" true (Osim.Server.checkpoints_taken server > 1);
  check_int "ring bounded" 5 (Osim.Checkpoint.count server.Osim.Server.ring)

let test_server_no_checkpointing_when_disabled () =
  let p = counter_proc () in
  let config = { Osim.Server.checkpoint_interval_ms = 0; keep_checkpoints = 5 } in
  let server = Osim.Server.create ~config p in
  ignore (Osim.Server.run server);
  for i = 1 to 20 do
    ignore (Osim.Server.handle server (string_of_int i))
  done;
  check_int "only the initial checkpoint" 1 (Osim.Server.checkpoints_taken server)

let test_server_filtered_messages () =
  let p = counter_proc () in
  let server = Osim.Server.create p in
  ignore (Osim.Server.run server);
  Osim.Netlog.add_filter p.Osim.Process.net ~name:"no-evil" (fun s -> s = "evil");
  (match Osim.Server.handle server "evil" with
  | `Filtered "no-evil" -> ()
  | _ -> Alcotest.fail "expected filtered");
  match Osim.Server.handle server "fine" with
  | `Served _ -> ()
  | _ -> Alcotest.fail "expected served"

(* ------------------------------------------------------------------ *)
(* Additional corners                                                  *)
(* ------------------------------------------------------------------ *)

let test_recv_truncates_long_messages () =
  (* The echo server's buffer is 256 bytes; recv must NUL-terminate within
     it and report the truncated length. *)
  let p = echo_proc () in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p (String.make 1000 'x'));
  ignore (Osim.Process.run p);
  match Osim.Process.committed_outputs p with
  | [ (0, data) ] -> check_int "truncated to buffer - 1" 255 (String.length data)
  | _ -> Alcotest.fail "expected one truncated response"

let test_processes_are_isolated () =
  let p1 = echo_proc ~seed:1 () in
  let p2 = echo_proc ~seed:2 () in
  ignore (Osim.Process.run p1);
  ignore (Osim.Process.run p2);
  ignore (Osim.Process.send_message p1 "only-p1");
  ignore (Osim.Process.run p1);
  check_int "p1 answered" 1 (List.length (Osim.Process.committed_outputs p1));
  check_int "p2 untouched" 0 (List.length (Osim.Process.committed_outputs p2))

let test_checkpoint_purge_after () =
  let ring = Osim.Checkpoint.create_ring ~capacity:10 () in
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  for i = 1 to 4 do
    ignore (Osim.Process.send_message p (string_of_int i));
    ignore (Osim.Process.run p);
    Osim.Checkpoint.add ring (Osim.Checkpoint.take p)
  done;
  check_int "four checkpoints" 4 (Osim.Checkpoint.count ring);
  Osim.Checkpoint.purge_after ring ~cursor:2;
  check_int "later ones purged" 2 (Osim.Checkpoint.count ring);
  List.iter
    (fun i ->
      ignore i;
      match Osim.Checkpoint.latest ring with
      | Some ck -> check_bool "survivors predate cursor" true
          (ck.Osim.Checkpoint.ck_net_cursor <= 2)
      | None -> Alcotest.fail "ring emptied")
    [ 1 ]

let test_rollback_hooks_fire () =
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  let ck = Osim.Checkpoint.take p in
  let fired = ref 0 in
  let id = Osim.Process.add_rollback_hook p (fun () -> incr fired) in
  Osim.Checkpoint.rollback p ck;
  Osim.Checkpoint.rollback p ck;
  check_int "hook ran per rollback" 2 !fired;
  Osim.Process.remove_rollback_hook p id;
  Osim.Checkpoint.rollback p ck;
  check_int "removed hook silent" 2 !fired

let test_netlog_message_lookup_bounds () =
  let t = Osim.Netlog.create () in
  ignore (Osim.Netlog.arrive t "zero");
  check Alcotest.string "lookup" "zero" (Osim.Netlog.message t 0).Osim.Netlog.m_payload;
  Alcotest.check_raises "negative id" (Invalid_argument "Netlog.message")
    (fun () -> ignore (Osim.Netlog.message t (-1)));
  Alcotest.check_raises "out of range" (Invalid_argument "Netlog.message")
    (fun () -> ignore (Osim.Netlog.message t 5))

(* ------------------------------------------------------------------ *)
(* Templates: clones share one compiled block table                    *)
(* ------------------------------------------------------------------ *)

let serve p msgs =
  ignore (Osim.Process.run p);
  List.iter
    (fun m ->
      ignore (Osim.Process.send_message p m);
      ignore (Osim.Process.run p))
    msgs

(* Everything a benign stream leaves observable, down to which tier
   retired each instruction. *)
let profile p =
  let c = p.Osim.Process.cpu in
  ( Osim.Process.committed_outputs p,
    [ c.Vm.Cpu.icount; c.Vm.Cpu.block_retired; c.Vm.Cpu.fast_retired;
      c.Vm.Cpu.slow_retired ] )

let check_profile =
  check Alcotest.(pair (list (pair int string)) (list int))

let table (p : Osim.Process.t) =
  match p.Osim.Process.cpu.Vm.Cpu.blocks with
  | Some bt -> bt
  | None -> Alcotest.fail "no block table attached"

(* [(entry_pc, length)] of every block in [p]'s table. *)
let block_bounds p =
  let bt = table p in
  let segs = p.Osim.Process.cpu.Vm.Cpu.code.Vm.Program.segments in
  let acc = ref [] in
  Array.iteri
    (fun si entry ->
      Array.iteri
        (fun ii bid ->
          if bid >= 0 then
            acc :=
              ( segs.(si).Vm.Program.seg_base + (ii * Vm.Isa.instr_size),
                bt.Vm.Cpu.bt_len.(bid) )
              :: !acc)
        entry)
    bt.Vm.Cpu.bt_entry;
  Array.of_list (List.rev !acc)

let runnable p pc =
  let bt = table p in
  match Vm.Program.locate p.Osim.Process.cpu.Vm.Cpu.code pc with
  | None -> Alcotest.fail "pc outside code"
  | Some (si, ii) ->
    Bytes.get bt.Vm.Cpu.bt_ok bt.Vm.Cpu.bt_cover.(si).(ii) <> '\000'

let test_clone_matches_load key () =
  let compiled = (Apps.Registry.find key).Apps.Registry.r_compile () in
  let msgs = Apps.Registry.workload ~seed:5 key 20 in
  let fresh = Osim.Process.load ~aslr:true ~seed:17 compiled in
  let clone =
    Osim.Process.instantiate (Osim.Process.template ~aslr:true ~seed:17 compiled)
  in
  serve fresh msgs;
  serve clone msgs;
  check_int "every request answered" 20
    (List.length (Osim.Process.committed_outputs clone));
  check_bool "block tier engaged" true
    (clone.Osim.Process.cpu.Vm.Cpu.block_retired > 0);
  check_profile "clone == fresh load" (profile fresh) (profile clone)

(* The three hottest multi-instruction blocks of [tpl] on [msgs], found
   by hooking every block entry of a probe clone. *)
let hot_blocks tpl msgs =
  let probe = Osim.Process.instantiate tpl in
  let hits = Hashtbl.create 64 in
  Array.iter
    (fun (pc, len) ->
      if len >= 2 then
        ignore
          (Vm.Cpu.add_pc_hook probe.Osim.Process.cpu ~pc (fun _ ->
               Hashtbl.replace hits pc
                 (len + Option.value ~default:0 (Hashtbl.find_opt hits pc)))))
    (block_bounds probe);
  serve probe msgs;
  match
    List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq hits))
  with
  | (x, _) :: (y, _) :: (z, _) :: _ -> (x, y, z)
  | _ -> Alcotest.fail "fewer than three hot blocks"

let test_clone_isolation () =
  let key = "apache1" in
  let compiled = (Apps.Registry.find key).Apps.Registry.r_compile () in
  let tpl = Osim.Process.template ~aslr:true ~seed:3 compiled in
  let msgs = Apps.Registry.workload ~seed:9 key 20 in
  let x, y, z = hot_blocks tpl msgs in
  let control = Osim.Process.instantiate tpl in
  serve control msgs;
  let a = Osim.Process.instantiate tpl and b = Osim.Process.instantiate tpl in
  let ca = a.Osim.Process.cpu in
  let h = Vm.Cpu.add_pc_hook ca ~pc:x (fun _ -> ()) in
  Vm.Cpu.invalidate_block ca ~pc:y;
  Vm.Cpu.elision_trip ca ~pc:z;
  List.iter
    (fun pc ->
      check_bool "demoted on A" false (runnable a pc);
      check_bool "runnable on B" true (runnable b pc))
    [ x; y; z ];
  check_int "A's trip counted" 1 ca.Vm.Cpu.elision_trips;
  check_int "B never tripped" 0 b.Osim.Process.cpu.Vm.Cpu.elision_trips;
  serve a msgs;
  serve b msgs;
  let outs_c, counts_c = profile control and outs_a, counts_a = profile a in
  check Alcotest.(list (pair int string)) "A serves the same" outs_c outs_a;
  check_int "A executes the same" (List.hd counts_c) (List.hd counts_a);
  check_bool "A's demoted blocks leave the block tier" true
    (List.nth counts_a 1 < List.nth counts_c 1);
  check_profile "B untouched by A" (profile control) (profile b);
  let late = Osim.Process.instantiate tpl in
  serve late msgs;
  check_profile "template untouched by A" (profile control) (profile late);
  (* A hook-only demotion lifts on detach; an invalidation or a trip is
     permanent, even across a later hook attach/detach. *)
  Vm.Cpu.remove_hook ca h;
  check_bool "hooked block re-promoted" true (runnable a x);
  Vm.Cpu.remove_hook ca (Vm.Cpu.add_pc_hook ca ~pc:y (fun _ -> ()));
  Vm.Cpu.remove_hook ca (Vm.Cpu.add_pc_hook ca ~pc:z (fun _ -> ()));
  check_bool "invalidated block stays demoted" false (runnable a y);
  check_bool "tripped block stays demoted" false (runnable a z)

let test_clones_share_block_code () =
  let tpl =
    Osim.Process.template ~aslr:false ~seed:1
      (Minic.Driver.compile_app ~name:"echo" echo_src)
  in
  let a = table (Osim.Process.instantiate tpl)
  and b = table (Osim.Process.instantiate tpl) in
  check_bool "closures shared" true (a.Vm.Cpu.bt_fn == b.Vm.Cpu.bt_fn);
  check_bool "entry map shared" true (a.Vm.Cpu.bt_entry == b.Vm.Cpu.bt_entry);
  check_bool "cover map shared" true (a.Vm.Cpu.bt_cover == b.Vm.Cpu.bt_cover);
  check_bool "lengths shared" true (a.Vm.Cpu.bt_len == b.Vm.Cpu.bt_len);
  check_bool "demotion state private" true
    (a.Vm.Cpu.bt_ok != b.Vm.Cpu.bt_ok
    && a.Vm.Cpu.bt_valid != b.Vm.Cpu.bt_valid
    && a.Vm.Cpu.bt_hooks != b.Vm.Cpu.bt_hooks)

let test_attach_foreign_table_rejected () =
  let p1 = echo_proc () and p2 = echo_proc () in
  let cpu1 = p1.Osim.Process.cpu and cpu2 = p2.Osim.Process.cpu in
  let code1 = Vm.Block_compile.table cpu1.Vm.Cpu.code (block_bounds p1) in
  Vm.Cpu.attach_blocks cpu1 code1;
  check_bool "own code attaches" true (Vm.Cpu.block_count cpu1 > 0);
  Alcotest.check_raises "different code"
    (Invalid_argument "Cpu.attach_blocks: table was built for different code")
    (fun () -> Vm.Cpu.attach_blocks cpu2 code1)

let () =
  Alcotest.run "osim"
    [
      ( "netlog",
        [
          Alcotest.test_case "arrive/consume" `Quick test_netlog_arrive_and_consume;
          Alcotest.test_case "filters" `Quick test_netlog_filters;
          Alcotest.test_case "replay/skip" `Quick test_netlog_replay_and_skip;
          Alcotest.test_case "quarantine" `Quick test_netlog_quarantine_persists;
          Alcotest.test_case "consumed_since" `Quick test_netlog_consumed_since;
        ] );
      ( "process",
        [
          Alcotest.test_case "blocks without input" `Quick
            test_process_blocks_without_input;
          Alcotest.test_case "echo roundtrip" `Quick test_process_echo_roundtrip;
          Alcotest.test_case "output commit" `Quick
            test_process_output_commit_suppression;
          Alcotest.test_case "sandbox" `Quick test_process_sandbox_drops_outputs;
          Alcotest.test_case "flashback random" `Quick test_process_flashback_random;
          Alcotest.test_case "exec = compromise" `Quick
            test_process_exec_marks_compromise;
          Alcotest.test_case "console log" `Quick test_process_console_log;
          Alcotest.test_case "aslr moves libc" `Quick test_process_aslr_moves_libc;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "rollback state" `Quick test_checkpoint_rollback_state;
          Alcotest.test_case "rollback repeatable" `Quick
            test_checkpoint_rollback_repeatable;
          Alcotest.test_case "heap rollback" `Quick test_checkpoint_heap_rollback;
          Alcotest.test_case "ring" `Quick test_checkpoint_ring;
        ] );
      ( "server",
        [
          Alcotest.test_case "serves and checkpoints" `Quick
            test_server_serves_and_checkpoints;
          Alcotest.test_case "checkpointing disabled" `Quick
            test_server_no_checkpointing_when_disabled;
          Alcotest.test_case "filtered messages" `Quick test_server_filtered_messages;
        ] );
      ( "template",
        List.map
          (fun key ->
            Alcotest.test_case ("clone == load " ^ key) `Quick
              (test_clone_matches_load key))
          [ "apache1"; "apache2"; "cvs"; "squid" ]
        @ [
            Alcotest.test_case "clone isolation" `Quick test_clone_isolation;
            Alcotest.test_case "clones share block code" `Quick
              test_clones_share_block_code;
            Alcotest.test_case "foreign table rejected" `Quick
              test_attach_foreign_table_rejected;
          ] );
      ( "corners",
        [
          Alcotest.test_case "recv truncation" `Quick test_recv_truncates_long_messages;
          Alcotest.test_case "process isolation" `Quick test_processes_are_isolated;
          Alcotest.test_case "purge_after" `Quick test_checkpoint_purge_after;
          Alcotest.test_case "rollback hooks" `Quick test_rollback_hooks_fire;
          Alcotest.test_case "message lookup bounds" `Quick
            test_netlog_message_lookup_bounds;
        ] );
    ]
