(** Span tracer: begin/end spans stamped with both the wall clock and the
    simulation's virtual clock, exportable as Chrome trace-event JSON
    (openable in Perfetto / chrome://tracing).

    Tracing is global and off by default. When disabled, [begin_span]
    returns a shared dead span and every other entry point is a single
    branch — the VM fast path never calls into this module at all.

    The recorder is domain-safe: every buffer mutation takes a single
    mutex, so sharded runs ({!Osim.Cluster}) may emit spans from many
    domains into one merged trace. *)

type span

type event = {
  ev_name : string;
  ev_cat : string;
  ev_instant : bool;
  ev_ph : string;  (** Chrome phase: ["X"], ["i"], ["s"] (flow), ["f"] *)
  ev_flow_id : int;  (** 0 unless a flow event *)
  ev_pid : int;  (** host/server id *)
  ev_tid : int;
  ev_ts_us : float;  (** wall time relative to trace start, microseconds *)
  ev_dur_us : float;  (** 0 for instants *)
  ev_vts_ms : float;  (** virtual timestamp at begin; nan when absent *)
  ev_vts_end_ms : float;
      (** virtual timestamp at end; nan when absent. Usually ≥ the begin
          stamp, but a span crossing a checkpoint rollback (recovery)
          legitimately ends {e earlier} in virtual time than it began. *)
  ev_args : (string * string) list;
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val clear : unit -> unit
(** Drop all recorded events and rebase the trace clock. *)

val begin_span :
  ?cat:string -> ?pid:int -> ?tid:int -> ?vts_ms:float ->
  ?args:(string * string) list -> string -> span

val end_span : ?vts_ms:float -> ?args:(string * string) list -> span -> unit
(** Records the completed span. A span begun while tracing was disabled is
    dead and is ignored. *)

val instant :
  ?cat:string -> ?pid:int -> ?tid:int -> ?vts_ms:float ->
  ?args:(string * string) list -> string -> unit

val flow_start :
  ?cat:string -> ?pid:int -> ?tid:int -> ?vts_ms:float ->
  ?args:(string * string) list -> id:int -> string -> unit
(** Open one end of a flow arrow (Chrome phase ["s"]). A later
    {!flow_finish} with the same [id] (and name/cat) draws the arrow
    between the duration spans enclosing each endpoint — the
    sender→receiver link in message-passing traces. *)

val flow_finish :
  ?cat:string -> ?pid:int -> ?tid:int -> ?vts_ms:float ->
  ?args:(string * string) list -> id:int -> string -> unit

val with_span :
  ?cat:string -> ?pid:int -> ?tid:int -> ?vts_ms:float ->
  ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

val timed :
  ?cat:string -> ?pid:int -> ?tid:int -> ?vts_ms:float ->
  ?args:(string * string) list -> ?end_args:('a -> (string * string) list) ->
  string -> (unit -> 'a) -> 'a * float
(** [timed name f] runs [f] and returns its result with the elapsed wall
    time in milliseconds. The measurement happens whether or not tracing is
    enabled; a span is recorded only when it is, with [end_args] of the
    result appended to its args. *)

val events : unit -> event list
(** In emission (completion) order. *)

val event_count : unit -> int
val to_chrome_json : unit -> string
val write : string -> unit
