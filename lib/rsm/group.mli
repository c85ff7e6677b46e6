(** One consensus group living inside an engine it does not own.

    The group is the paper's fixed template with a pluggable object: the
    replica stack — {!Netsim.Async_net}, the log below and {!Checker} —
    runs any per-replica {!machine}.  With a [store] configured, every
    replica also gets a {!Store.Disk}: slots are written to a WAL in
    {!Wal}'s format (entries, commit marker, fsync), snapshots compact
    it, and crash and restart go through real recovery.  What a crash erases and
    what survives is decided here and nowhere else.

    {b Total-order broadcast.}  Each replica runs the reduction of
    SNIPPETS.md snippet 3 (TO-broadcast from a sequence of consensus
    instances), with batching, and keeps its three pieces of state: the
    commands it knows but has not yet ordered ([urb_delivered \
    to_deliverable] — here the {e pending} set), the commands it has
    applied, and its slot counter.  When a replica has pending commands
    it opens the next slot with a batch of up to [batch] of them; every
    other live replica joins the slot (with its own pending batch,
    possibly empty), the log decides a winner, and all replicas apply
    the winning batch — skipping commands they already applied, so a
    command that rides in several proposals is still applied exactly
    once.  Command dissemination is a plain best-effort broadcast; the
    consensus object restores uniformity (a decided batch reaches every
    live replica through the log even when the original broadcast was
    cut short by the sender's crash).  A replica behind the snapshot
    floor adopts the donor's snapshot instead of replaying slots.

    {b The log.}  The group keeps one table of slots, [CS[sn]] of the
    reduction, standing in for what the live replicas collectively
    remember.  A slot's first proposal opens it (its sender is the
    opener) and spawns its decider process, [rsm-slot-<slot>].  The
    decider waits until every member of the quorum gate's view has
    proposed, decides the winner with {!Backend.decide_slot}, holds the
    slot for the virtual time the backend's instances took (so
    consensus latency shows in the outer run), and publishes the winner
    to every replica.  Its trace line, like the reseed line below,
    carries no [label].
    - {e Quorum gate.}  With the network whole the view is every live
      replica, so a crash releases a slot waiting on the victim.  Under
      a cut it is the live members of the side holding a strict
      majority of the live replicas, and with no such side every slot
      stalls until heal.
    - {e Snapshot floor.}  Each durable snapshot a replica takes, or
      finds on its disk at recovery, is advertised if it covers more
      slots than the current floor; a replica whose next slot is at or
      below the floor installs it.
    - {e Total outage.}  With a store, the crash that leaves no replica
      live wipes the table and the floor: nobody is left to remember
      them.  Without a store memory survives, so nothing is wiped.
    - {e Reseed.}  Recovery re-installs every decision the replica's
      committed WAL holds into a slot the table has forgotten (first
      recovery wins; the WALs agree by slot agreement), at no backend
      cost.  After a total outage this is the only source of decided
      slots, so a laggard replays them instead of re-deciding.

    {!Runner} drives one group with closed-loop clients; [Shard.Runner]
    stands up one group per shard in a shared engine and layers 2PC
    over them.  Neither touches a replica's processes, its pending or
    delivered set, its disk, the WAL or the log directly; fault
    injectors drive a group through the fault surface below.

    {b Completion.}  [on_first_apply] fires once per command id, when
    the {e first} replica applies it, with the machine's output (the
    canonical result, by slot agreement).  [on_ready] fires once per
    command id when the ack rule first holds: the command has been
    applied somewhere and, unless there is no store or
    [ack_before_fsync] is set, is durable on some disk.  Both run
    synchronously inside the applying or fsync-completing event; a
    caller that wants to re-enter {!submit} from them defers the work
    itself. *)

type store_config = {
  policy : Store.Policy.t;  (** initial storage fault policy *)
  snapshot_every : int;
      (** take a snapshot + compact every this many non-empty slots per
          replica (0 = never snapshot) *)
  ack_before_fsync : bool;
      (** deliberately broken mode: a command is ready as soon as it is
          applied, without waiting for its WAL records to be durable.
          Exists so the durability audit has a bug to catch; keep
          [false] for honest runs. *)
}

val default_store_config : store_config
(** Honest disks ({!Store.Policy.none}), snapshot every 4 non-empty
    slots, ready after fsync. *)

type ('op, 'st, 'out) machine = {
  fresh : unit -> 'st;
      (** a new initial state; called once per replica and on every
          reset, so a mutable state is never shared *)
  apply : 'st -> 'op -> 'st * 'out;
      (** one deterministic step: the next state (which may be the same
          mutated value) and the operation's output *)
  snapshot : 'st -> string;  (** snapshot codec; newline-free *)
  restore : string -> 'st;
  op_to_string : 'op -> string;  (** WAL codec; newline-free *)
  op_of_string : string -> 'op;
  digest : 'st -> string;
      (** canonical fingerprint: equal states yield equal digests *)
}
(** What each replica runs. *)

type ('op, 'st, 'out) t

val create :
  engine:Dsim.Engine.t ->
  label:string ->
  n:int ->
  backend:Backend.t ->
  seed:int64 ->
  batch:int ->
  store:store_config option ->
  machine:('op, 'st, 'out) machine ->
  on_first_apply:('op -> 'out -> unit) ->
  on_ready:(cid:int -> unit) ->
  ('op, 'st, 'out) t
(** Wire the group and spawn its [n] replica processes.  The group's
    network has {!Netsim.Async_net}'s default latency, uniform 1-10.
    [batch] caps the commands per proposal (>= 1).  [label] prefixes
    the group's crash, restart, recovery and install trace lines (empty
    for a lone group, ["shard 2"] in a sharded run).  [store = None]
    keeps the recoverable model, where memory survives a crash. *)

val submit : ('op, _, _) t -> start:int -> cid:int -> 'op -> bool
(** Record the submission, then inject the command at the first live
    replica of the rotation [start], [start + 1], ... (mod [n]).  False
    when every replica is down.  Re-submitting a cid is safe: a replica
    ignores a command it already applied, and applies a batch's command
    only if it has not applied it yet. *)

val first_output : (_, _, 'out) t -> cid:int -> 'out option
(** The output of the command's first application, if any. *)

val record_acked : _ t -> cid:int -> unit
(** Feed the durability audit: a client was acked for this cid. *)

val stop : _ t -> unit
(** Ask the replica loops to exit once idle, so a drained run ends in
    engine quiescence rather than a parked-forever await. *)

val engine : _ t -> Dsim.Engine.t
(** The engine the group runs in, for injectors that schedule faults. *)

(** {1 Fault surface} *)

val crash : _ t -> int -> unit
(** Crash-stop a replica (no-op if down): its loop is killed.  Without a
    store, memory survives.  With a store, it loses its pending commands
    and its disk's unsynced tail, and the checker judges it by what its
    disk can reproduce. *)

val restart : _ t -> int -> unit
(** Restart a crashed replica (no-op if live) and respawn its loop.
    Without a store it resumes at its pre-crash slot counter and catches
    up from the log's decisions.  With a store, its state, delivered set
    and slot counter are exactly what its latest snapshot plus the
    committed WAL prefix reproduce, and every decision its disk holds
    re-feeds the log. *)

val partition : _ t -> int list list -> unit
val heal : _ t -> unit

val set_policy :
  ('op, _, _) t ->
  ('op Wal.entry Netsim.Async_net.envelope -> Netsim.Async_net.policy_verdict) ->
  unit

val set_store_policy : _ t -> Store.Policy.t -> unit
val live : _ t -> int list

(** {1 Scorecard} *)

val violations : _ t -> Checker.violation list
val completeness : _ t -> Checker.violation list
val durability : _ t -> Checker.violation list
val digests : _ t -> string array

val digests_agree : _ t -> string array -> bool
(** [digests_agree t ds]: whether [ds], the group's {!digests}, agree
    over its live replicas. *)

val delivered : _ t -> int array
(** Per replica, the number of commands it has applied. *)

val applied_unique : _ t -> int
(** Distinct command ids applied group-wide. *)

val slots : _ t -> int
(** Slots the log's deciders have decided (reseeded slots not counted). *)

val instances : _ t -> int
(** Binary backend instances the deciders ran: the log's cost, which
    batching amortizes across commands. *)

val messages_sent : _ t -> int
val messages_delivered : _ t -> int

val crashed : _ t -> int list
(** Crash events, in order. *)

val restarted : _ t -> int list
(** Restart events, in order. *)

val disks : _ t -> Store.Disk.t array
(** One per replica; empty without a store. *)

val state : (_, 'st, _) t -> int -> 'st
(** A replica's current state. *)
