(** One consensus group living inside an engine it does not own.

    The group is the paper's fixed template with a pluggable object: the
    replica stack — {!Netsim.Async_net} + {!Log} + {!Tob} + {!Checker} —
    runs any per-replica {!machine}.  With a [store] configured, every
    replica also gets a {!Store.Disk}: slots are written to a WAL in
    {!Wal}'s format (entries, commit marker, fsync), snapshots compact
    it, and crash and restart go through real recovery.  What a crash
    erases and what survives is decided here and nowhere else.

    {!Runner} drives one group with closed-loop clients; [Shard.Runner]
    stands up one group per shard in a shared engine and layers 2PC
    over them.  Neither touches a disk, the WAL or the log's recovery
    hooks directly.

    {b Completion.}  [on_first_apply] fires once per command id, when
    the {e first} replica applies it, with the machine's output (the
    canonical result, by slot agreement).  [on_ready] fires once per
    command id when {!is_ready} first holds.  Both run synchronously
    inside the applying or fsync-completing event; a caller that wants
    to re-enter {!submit} from them defers the work itself. *)

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
  latency:Netsim.Latency.t ->
  batch:int ->
  store:store_config option ->
  machine:('op, 'st, 'out) machine ->
  on_first_apply:('op -> 'out -> unit) ->
  on_ready:(cid:int -> unit) ->
  ('op, 'st, 'out) t
(** Wire the group and spawn its [n] replica processes.  [label]
    prefixes the group's crash, restart and install trace lines (empty
    for a lone group, ["shard 2"] in a sharded run).  [store = None]
    keeps the recoverable model, where memory survives a crash. *)

val submit : ('op, _, _) t -> start:int -> cid:int -> 'op -> bool
(** Record the submission, then inject the command at the first live
    replica of the rotation [start], [start + 1], ... (mod [n]).  False
    when every replica is down.  Re-submitting a cid is safe: {!Tob}
    de-duplicates it. *)

val is_ready : _ t -> cid:int -> bool
(** The ack rule: the command has been applied somewhere and, unless
    there is no store or [ack_before_fsync] is set, is durable on some
    disk. *)

val first_output : (_, _, 'out) t -> cid:int -> 'out option
(** The output of the command's first application, if any. *)

val record_acked : _ t -> cid:int -> unit
(** Feed the durability audit: a client was acked for this cid. *)

val stop : _ t -> unit
(** Wind the replica loops down once idle. *)

(** {1 Fault surface} *)

val crash : _ t -> int -> unit
(** Crash-stop a replica (no-op if down).  With a store, it loses its
    pending commands and its disk's unsynced tail, and the checker
    judges it by what its disk can reproduce. *)

val restart : _ t -> int -> unit
(** Restart a crashed replica (no-op if live).  With a store, it resumes
    from its latest snapshot plus the committed WAL prefix, and re-feeds
    the log with every decision its disk holds. *)

val partition : _ t -> int list list -> unit
val heal : _ t -> unit

val set_policy :
  ('op, _, _) t ->
  ('op Tob.entry Netsim.Async_net.envelope -> Netsim.Async_net.policy_verdict) ->
  unit

val set_store_policy : _ t -> Store.Policy.t -> unit
val live : _ t -> int list

(** {1 Scorecard} *)

val violations : _ t -> Checker.violation list
val completeness : _ t -> Checker.violation list
val durability : _ t -> Checker.violation list
val digests : _ t -> string array
val digests_agree : _ t -> bool
val delivered : _ t -> int array

val applied_unique : _ t -> int
(** Distinct command ids applied group-wide. *)

val slots : _ t -> int
val instances : _ t -> int
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
