(* Random MiniC workloads for the differential suites.

   A recipe is a set of knobs on one fixed program shape, so generated
   sources always compile, while the dynamic behaviour ranges over clean
   runs, benign faults, smashed returns, exec hijacks, heap overflows and
   double frees. *)

(* Deterministic qcheck runs by default; QCHECK_SEED overrides. (The
   stock QCheck_alcotest default self-seeds from the clock, which makes
   failures unreproducible — so the seed is pinned here instead.) *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 0x5EED)
    | None -> 0x5EED
  in
  Random.State.make [| seed |]

type t = {
  cap : int;        (* receive buffer size *)
  reps : int;       (* outer loop repetitions *)
  stride : int;     (* read offset in the copy loop *)
  addk : int;       (* constant folded into copied bytes *)
  use_words : bool; (* mix in word-sized loads through an int* view *)
  vuln : int;
      (* 0 = clean, 1 = stack smash, 2 = exec sink, 3 = heap overflow,
         4 = write after free, then double free *)
  over : int;       (* how far past the 16-byte buffer the overflow reaches *)
  msg_len : int;    (* attack message length *)
  msg_seed : int;   (* attack message contents *)
}

let source_of r =
  let words =
    if r.use_words then
      "int *p = (int*)buf; acc = acc + p[0] + p[1] + p[2];"
    else ""
  in
  let sink =
    match r.vuln with
    | 1 -> Printf.sprintf "vuln(buf, n + %d);" r.over
    | 2 -> Printf.sprintf "dst[%d] = 0; system(dst);" (r.cap - 1)
    | 3 ->
      Printf.sprintf
        "h = malloc(16); h2 = malloc(16); i = 0; \
         while (buf[i] != 0 && i < %d) { h[i] = buf[i]; i = i + 1; } \
         free(h2);"
        (16 + r.over)
    | 4 ->
      Printf.sprintf "h = malloc(16); free(h); h[%d] = buf[0]; free(h);"
        (r.over land 7)
    | _ -> ""
  in
  Printf.sprintf
    {|
    char buf[%d];
    char dst[%d];
    int sink;
    void vuln(char *s, int n) {
      char local[16];
      int i = 0;
      while (s[i] != 0 && i < n) { local[i] = s[i]; i = i + 1; }
    }
    int main() {
      int n = _recv(buf, %d);
      int acc = 0;
      int r = 0;
      int i = 0;
      char *h;
      char *h2;
      while (r < %d) {
        i = 0;
        while (i + %d < %d) {
          acc = acc + buf[i];
          dst[i] = (char)(buf[i + %d] + %d);
          i = i + 1;
        }
        r = r + 1;
      }
      %s
      sink = acc;
      %s
      return 0;
    }
  |}
    r.cap r.cap r.cap r.reps r.stride r.cap r.stride r.addk words sink

let message_of r =
  String.init r.msg_len (fun i ->
      Char.chr (1 + (((r.msg_seed * 31) + (i * 7)) land 0x7F)))

let gen ?(max_vuln = 4) () =
  QCheck.Gen.(
    oneofl [ 16; 64; 128 ] >>= fun cap ->
    int_range 1 4 >>= fun reps ->
    int_range 0 4 >>= fun stride ->
    int_range 0 60 >>= fun addk ->
    bool >>= fun use_words ->
    int_range 0 max_vuln >>= fun vuln ->
    int_range 0 40 >>= fun over ->
    int_range 1 cap >>= fun msg_len ->
    int_range 0 9999 >>= fun msg_seed ->
    return { cap; reps; stride; addk; use_words; vuln; over; msg_len; msg_seed })

let print r =
  Printf.sprintf
    "cap=%d reps=%d stride=%d addk=%d words=%b vuln=%d over=%d len=%d seed=%d"
    r.cap r.reps r.stride r.addk r.use_words r.vuln r.over r.msg_len r.msg_seed

let arbitrary ?max_vuln () = QCheck.make ~print (gen ?max_vuln ())

let compile r = Minic.Driver.compile_app ~name:"recipe" (source_of r)

(* Load the compiled image with a fixed ASLR seed, run it to its receive
   and hand it the recipe's message: two calls give two identical
   processes, so any divergence between engines replaying them is an
   engine bug, not nondeterminism. *)
let load_and_poke app msg =
  let proc = Osim.Process.load ~aslr:true ~seed:17 app in
  ignore (Osim.Process.run proc);
  ignore (Osim.Process.send_message proc msg);
  proc

let clean =
  {
    cap = 64;
    reps = 3;
    stride = 2;
    addk = 7;
    use_words = true;
    vuln = 0;
    over = 0;
    msg_len = 48;
    msg_seed = 5;
  }

(* 24 nonzero message bytes: 16 fill [local], 4 the saved frame pointer,
   4 the return address — the smash stops exactly on the ret slot, so the
   clobbered target is tainted and vuln's own arguments stay intact. *)
let smash = { clean with vuln = 1; over = 20; msg_len = 24 }
let exec = { clean with vuln = 2 }
let heap_overflow = { clean with vuln = 3; over = 24 }
let double_free = { clean with vuln = 4; over = 3 }
