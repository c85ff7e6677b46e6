(** Structured execution traces.

    Every simulation carries a trace: a time-ordered sequence of tagged
    events.  Protocol implementations emit events; property monitors and
    tests read them back.  The trace is append-only during a run. *)

type event = {
  time : int;  (** virtual time at which the event was emitted *)
  pid : int option;  (** emitting process, when applicable *)
  tag : string;  (** machine-matchable category, e.g. ["send"].  Tags are
                     free-form per subsystem; e.g. the failure-detector
                     layer emits under ["detect"] ([suspect]/[trust]
                     transitions, [omega stable]/[omega unstable] view
                     changes, [round]/[decide] protocol steps) and the
                     fault injector under ["nemesis"]. *)
  detail : string;  (** human-readable payload *)
}

type t

val create : ?capacity:int -> unit -> t
(** A fresh empty trace.  [capacity] bounds retained events; beyond it the
    oldest events are discarded (default: unbounded). *)

val emit : t -> time:int -> ?pid:int -> tag:string -> string -> unit
(** Append one event. *)

val reset : t -> unit
(** Drop every retained event; the capacity stays. *)

val events : t -> event list
(** All retained events, oldest first. *)

val with_tag : t -> string -> event list
(** Retained events carrying the given tag, oldest first. *)

val count : t -> string -> int
(** Number of retained events with the given tag. *)

val length : t -> int
(** Total number of retained events. *)

val last : t -> int -> event list
(** [last t k] is the newest [min k (length t)] retained events, oldest
    first — the tail a trace dump wants.  [last t k = events t] whenever
    [k >= length t]; [k <= 0] gives []. *)

val pp_event : Format.formatter -> event -> unit
(** Render one event as [t=... pid=... tag detail]. *)

val dump : Format.formatter -> t -> unit
(** Render the whole trace, one event per line. *)
