(** One consensus group (a shard) living inside a {e shared}
    {!Dsim.Engine}.

    This is the multi-group refactor of {!Rsm.Runner}: the same stack —
    {!Netsim.Async_net} + {!Rsm.Log} + {!Rsm.Tob} + per-replica
    {!Machine} + {!Rsm.Checker}, with the same {!Rsm.Wal} records,
    snapshotting and crash-recovery rules when a [store] is configured
    — but it does not own the engine or the client loop, so a
    {!Runner} can stand up N of these side by side and layer 2PC over
    them.

    Completion is push-based (built for tens of thousands of clients —
    no polling fibers): [on_first_apply] fires once per command id when
    the {e first} replica applies it, carrying the machine's output
    (the canonical result, by slot agreement); [on_ready] fires once
    per command id when it is both applied and — if a store is
    configured and honest acks are on — durable on some disk.  Both
    callbacks are deferred to a fresh engine event, so they may safely
    re-enter [submit]. *)

type t

val create :
  engine:Dsim.Engine.t ->
  shard:int ->
  replicas:int ->
  backend:Rsm.Backend.t ->
  seed:int64 ->
  ?latency:Netsim.Latency.t ->
  batch:int ->
  ?store:Rsm.Runner.store_config ->
  on_first_apply:(cid:int -> Cmd.t -> Machine.output -> unit) ->
  on_ready:(cid:int -> unit) ->
  unit ->
  t

val shard : t -> int
val replicas : t -> int

val submit : t -> ?attempt:int -> cid:int -> Cmd.t -> bool
(** Inject at a live replica chosen by [(cid + attempt)] rotation —
    pass a fresh [attempt] on each retry to spread re-submissions.
    False when every replica is down.  Re-submitting a cid is safe
    (TOB de-duplicates); the checker records the submission once. *)

(** {1 Fault surface} (the per-shard analogue of {!Rsm.Runner.faults}) *)

val crash : t -> int -> unit
val restart : t -> int -> unit
val partition : t -> int list list -> unit
val heal : t -> unit

val set_policy :
  t ->
  (Cmd.t Rsm.Tob.entry Netsim.Async_net.envelope ->
  Netsim.Async_net.policy_verdict) ->
  unit

val set_store_policy : t -> Store.Policy.t -> unit
val live : t -> int list
val is_crashed : t -> int -> bool

val record_acked : t -> cid:int -> unit
(** Feed the durability audit: the client/coordinator acked this cid. *)

val stop : t -> unit
(** Wind the TOB replica loops down once idle. *)

(** {1 Scorecard} *)

val violations : t -> Rsm.Checker.violation list
val completeness : t -> Rsm.Checker.violation list
val durability : t -> Rsm.Checker.violation list
val digests : t -> string array
val digests_agree : t -> bool
val delivered : t -> int array
val applied_unique : t -> int
(** Distinct command ids applied group-wide (per-shard throughput). *)

val slots : t -> int
val instances : t -> int
val messages_sent : t -> int
val messages_delivered : t -> int
val crashed_list : t -> int list
val restarted_list : t -> int list
val store_stats : t -> Store.Disk.stats array
val machine : t -> int -> Machine.t
