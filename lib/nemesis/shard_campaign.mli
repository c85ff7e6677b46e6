(** The sharded fault campaign, a {!Sweep} cell over {!Shard.Runner}.

    Every campaign seed expands into {e one fault plan per shard}
    (derived seeds, installed via {!Interp.install_shard}), so
    partitions, crashes and storage faults hit shards independently
    while a mixed single/multi-shard workload runs over them.  Each run
    is scored on four properties: per-shard safety (total order +
    digest agreement), cross-shard {e atomicity} (the 2PC checker),
    liveness (every operation completes), and durability.  Keys are
    backend-major, then seed. *)

type config = {
  backends : Rsm.Backend.t list;
  plans : int;  (** campaign seeds per backend *)
  first_seed : int;
  shards : int;
  replicas : int;  (** per shard *)
  clients : int;
  ops_per_client : int;
  keys : int;
  tx_pct : int;  (** % multi-shard transactions in the workload *)
  batch : int;
  max_events : int;
  storage : bool;  (** give every replica a WAL and draw storage faults *)
  broken_2pc : bool;  (** run the commit-without-quorum mutant *)
}

val default_config : ?shards:int -> ?replicas:int -> unit -> config
(** 4 shards x 3 replicas, 30 plans, 12 clients x 3 ops, 25% txs.
    Every plan has the benign default profile of [replicas] nodes
    ({!Gen.default}): every disturbance heals before the horizon. *)

type outcome = {
  backend_name : string;
  plan_seed : int;
  plans : Plan.t array;  (** index = shard *)
  safety : bool;  (** per-shard order violations = 0, digests agree *)
  atomic : bool;  (** cross-shard atomicity violations = 0 *)
  live : bool;  (** every op completed; no completeness violations *)
  durable : bool;
  total_ops : int;
  completed : int;
  txs_committed : int;
  txs_aborted : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

val plans_for : config -> seed:int -> Plan.t array
(** The per-shard plans a campaign seed expands into (deterministic). *)

include Sweep.S with type config := config and type outcome := outcome
