(** A simulated Raft cluster with built-in invariant monitoring.

    Wraps [n] replicas on one asynchronous network and continuously checks
    the paper's three quoted Raft properties:

    - {b Election Safety} (at most one leader per term) — checked online
      from leadership events.
    - {b State Machine Safety} (no two replicas apply different commands
      at the same index) — checked online from apply events.
    - {b Log Matching} (same index & term ⇒ identical prefixes) — checked
      on demand over the current logs by {!check_log_matching}.

    Leader Completeness is not directly observable as a single event; it
    is implied by State Machine Safety holding across every run (a
    committed entry that later vanished from a leader's log would surface
    as an application mismatch or a lost commit). *)

type t

val create :
  ?seed:int64 ->
  ?config:Replica.config ->
  ?latency:Netsim.Latency.t ->
  ?policy:(Types.msg Netsim.Async_net.envelope -> Netsim.Async_net.policy_verdict) ->
  n:int ->
  unit ->
  t
(** Build (but do not start) a cluster.  Default latency Uniform(5, 20);
    default replica config {!Replica.default_config}. *)

val engine : t -> Dsim.Engine.t
val net : t -> Types.msg Netsim.Async_net.t
val n : t -> int
val replica : t -> int -> Replica.t
val replicas : t -> Replica.t array

val start : t -> unit
(** Start every replica (handlers + election timers). *)

val run_for : t -> int -> unit
(** Advance virtual time by the given amount. *)

val run_until : t -> ?timeout:int -> (unit -> bool) -> bool
(** Advance time until the predicate holds; false on timeout
    (default 100_000) or quiescence without the predicate holding. *)

val current_leader : t -> int option
(** The unique live leader of the highest term, if any. *)

val crash : t -> int -> unit
val restart : t -> int -> unit
val partition : t -> int list list -> unit
val heal : t -> unit

val propose_via_leader : t -> Types.command -> bool
(** Submit a command to the current leader, if one exists. *)

val violations : t -> string list
(** Election-safety and state-machine-safety violations seen so far. *)

val check_log_matching : t -> string list
(** On-demand Log Matching check over all live replicas' current logs. *)

val leaders_by_term : t -> (Types.term * int) list
(** Who won each term, ascending by term. *)
