(* The original input isolation: the taint shortcut, then each suspect
   replayed alone, then, for a crash only the stream reproduces, a greedy
   minimization over the whole suspect window — every step replays from
   the rollback point through all the messages still kept, about N²/2
   replayed messages for a window of N. Same result as
   [Sweeper.Orchestrator.isolation_stage]; kept as the differential-testing
   reference for its suffix search. *)

module Int_set = Sweeper.Stage.Int_set
module Stage = Sweeper.Stage
module Taint = Sweeper.Taint

(** Responsible message ids and the stream-only flag, as the stage stores
    them in [cx_isolation]. *)
let run (cx : Stage.ctx) =
  let taint_msgs =
    match cx.Stage.cx_taint with
    | Some t -> Taint.verdict_msgs t.Taint.t_verdict
    | None -> []
  in
  match taint_msgs with
  | _ :: _ -> (taint_msgs, false)  (* taint already isolated the input *)
  | [] ->
    let suspects = cx.Stage.cx_suspects in
    let all = Int_set.of_list suspects in
    let alone =
      List.filter
        (fun m -> Stage.Replay.crashes ~skip:(Int_set.remove m all) cx)
        suspects
    in
    if alone <> [] then (alone, false)
    else if not (Stage.Replay.crashes cx) then ([], false)
    else begin
      (* Only a stream reproduces it (stateful exploit). Minimize
         it greedily: drop each message whose absence keeps the
         crash. *)
      let keep = ref all in
      List.iter
        (fun m ->
          let candidate = Int_set.remove m !keep in
          if Stage.Replay.crashes ~skip:(Int_set.diff all candidate) cx
          then keep := candidate)
        suspects;
      (Int_set.elements !keep, true)
    end
