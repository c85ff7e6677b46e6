(** Heavy-traffic workloads for the sharded multi-group RSM — the
    {!Rsm_load} analogue for {!Shard.Runner}, sharing its generator and
    stats plumbing with {!Load}.

    A run is [clients] callback clients issuing a Zipf-skewed
    SET/GET/CAS mix ({!Obj.Kv.gen_op}) plus [tx_pct]% multi-shard
    write transactions over [shards] independent consensus groups,
    scored against every per-shard checker and the cross-shard
    atomicity checker. *)

(** One sharded run's scorecard, ready for tables and bench rows. *)
type summary = {
  backend_name : string;
  shards : int;
  replicas : int;  (** per shard *)
  clients : int;
  total_ops : int;  (** client operations generated (singles + txs) *)
  singles_acked : int;
  txs_committed : int;
  txs_aborted : int;
  abort_rate : float;
  virtual_time : int;
  throughput : float;
      (** completed operations (singles acked + txs committed) per 1000
          virtual time units, aggregated across shards *)
  per_shard_applied : int array;  (** distinct commands applied, by shard *)
  single_latency : Stats.summary option;  (** submit-to-durable-ack *)
  tx_latency : Stats.summary option;  (** committed txs, start-to-ack *)
  violations : int;
      (** per-shard order/completeness/durability + cross-shard
          atomicity/tx-completeness (want 0) *)
  ok : bool;  (** zero violations and per-shard digests agree *)
}

val summarize : Shard.Runner.config -> Shard.Runner.report -> summary

val config :
  ?shards:int ->
  ?replicas:int ->
  ?batch:int ->
  ?seed:int ->
  ?load:Load.t ->
  ?arrival:Shard.Runner.arrival ->
  ?store:Rsm.Runner.store_config ->
  ?inject:
    ((Shard.Cmd.t, Shard.Machine.t, Shard.Machine.output) Rsm.Group.t array ->
    unit) ->
  ?broken_2pc:bool ->
  ?ack_timeout:int ->
  ?max_events:int ->
  ?quiet:bool ->
  backend:Rsm.Backend.t ->
  unit ->
  Shard.Runner.config
(** Build a full runner config from a {!Load} shape (default
    {!Load.default}); [shards] and [seed] override the corresponding
    [load] fields so the generator and the router always agree.
    Defaults: 4 shards x 3 replicas, batch 16, closed-loop arrivals, no
    store, no faults, honest 2PC, quiet. *)

val run : Shard.Runner.config -> Shard.Runner.report * summary
(** {!Shard.Runner.run} and its {!summarize}. *)

val sweep_shards : load:Load.t -> seeds:int -> Format.formatter -> summary list
(** The scaling table: the {e same} client traffic ([load]) run on
    Ben-Or at 1, 2 and 4 shards, averaged over [seeds] seeds — the
    experimental check that single-shard operations scale with shard
    count while cross-shard transactions pay for coordination. *)
