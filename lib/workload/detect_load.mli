(** Deterministic detector-parameter sweeps over the indulgent
    consensus runner ({!Detect.Runner}) — the single-run bench cells
    behind two trade-off tables:

    - {b decision latency vs stability window}: the stable leader is
      crashed early, so the survivors pay one suspicion timeout before
      anyone else coordinates — latency tracks the window;
    - {b heartbeat overhead vs period}: a follower is crashed
      permanently so the run lasts the full horizon, and heartbeats
      are counted over fixed virtual time.

    Campaign-grade sweeps over random fault plans are the
    [Nemesis.Detect_campaign] cell of [Nemesis.Sweep] (which sits above
    this library). *)

type summary = {
  period : int;
  window : int;  (** initial suspicion timeout *)
  seeds : int;
  decided : int;  (** runs where every surviving node decided *)
  mean_latency : float option;  (** virtual time of the first decision *)
  mean_stability : float option;  (** time to a stable omega *)
  suspicions : int;
  false_suspicions : int;
  heartbeats : int;
  heartbeats_per_kvt : float;  (** heartbeats per 1000 virtual time units *)
  virtual_time : int;  (** summed over the cell's runs *)
  ok : bool;  (** all decided, agreement + validity everywhere *)
}

val sweep_windows : Format.formatter -> summary list
(** One cell per stability window [{50; 100; 200; 400}], two seeded
    runs each of 4 nodes to horizon 2,000, leader crash at t=10; prints
    the latency table and returns the cells in window order. *)

val sweep_periods : Format.formatter -> summary list
(** One cell per heartbeat period [{10; 20; 40; 80}], two seeded runs
    each of 4 nodes to horizon 2,000, with the window scaled to stay
    accurate at every period; prints the overhead table and returns the
    cells in period order. *)
