(** Heartbeat failure-detector oracles: ◊P, ◊S and Ω.

    The concrete detector is eventually perfect (◊P): every node sends
    heartbeats each {!Timeout.params.period} ticks and suspects a peer
    whose heartbeat misses an adaptive per-peer deadline — timeouts
    grow by backoff on suspicion and shrink on a late heartbeat, so
    after finitely many mistakes no correct process is suspected.
    ◊S is the same suspicion sets read permissively, and Ω is
    derived: {!leader} is the minimum unsuspected process in the
    querying node's view, so once ◊P converges all correct nodes
    elect the same leader (an explicit ["detect"]-tagged
    ["omega stable"] trace event marks the transition).

    The oracle never owns the network: heartbeats go out through the
    [send_heartbeat] callback and come back through
    {!deliver_heartbeat}, so nemesis partitions and crashes perturb
    detector traffic exactly as they do protocol traffic.

    Lying mutants wrap the query surface only; the machinery below
    stays honest.  Indulgent protocols must stay safe under them. *)

type mutant =
  | Honest
  | False_suspect of int  (** permanently claims this process is dead *)
  | Rotating  (** answers every Ω query with a fresh rotation *)

type stats = {
  mutable suspicions : int;
  mutable false_suspicions : int;  (** suspected peer was in fact live *)
  mutable unsuspicions : int;
  mutable omega_changes : int;  (** global leader-view transitions *)
  mutable omega_stable_at : int option;
      (** virtual time all live nodes last converged on one leader;
          [None] while their views disagree (always [None] under
          [Rotating]) *)
}

type t

val create :
  engine:Dsim.Engine.t ->
  n:int ->
  ?params:Timeout.params ->
  ?mutant:mutant ->
  send_heartbeat:(me:int -> unit) ->
  is_live:(int -> bool) ->
  unit ->
  t
(** A detector for nodes [0 .. n-1].  [send_heartbeat ~me] must
    broadcast a heartbeat from [me] (the caller owns message type and
    network); [is_live] reports network-level crash state and gates
    both heartbeat sending and the false-suspicion statistics.
    @raise Invalid_argument if [params] fails {!Timeout.valid}. *)

val start : t -> unit
(** Spawn the per-node heartbeat senders and arm all initial
    deadlines.  Call once, before running the engine. *)

val stop : t -> unit
(** Stop heartbeats and ignore outstanding deadline wakers, letting
    the engine go quiescent. *)

val deliver_heartbeat : t -> me:int -> from:int -> unit
(** Feed a received heartbeat into [me]'s view of [from]: unsuspects
    (shrinking the timeout) and re-arms the deadline. *)

val leader : t -> me:int -> int
(** Ω query from [me]'s view: minimum unsuspected process.  Under
    [Rotating] each query advances [me]'s private rotation. *)

val suspects : t -> me:int -> peer:int -> bool
(** ◊P query: does [me] currently suspect [peer]? *)

val params : t -> Timeout.params
val stats : t -> stats
