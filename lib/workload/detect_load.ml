(* Detector-parameter sweeps over the indulgent consensus runner.

   Two bench-facing tables:

   - decision latency vs the stability window: crash the stable leader
     (node 0) early, so reaching a decision requires the survivors to
     actually suspect it — the decision lands roughly one suspicion
     timeout plus two round trips after the crash, making the
     window/latency trade-off visible;

   - heartbeat overhead vs the period: crash one follower permanently
     so the run never stops early, and count heartbeats over the full
     fixed horizon.

   Campaign-grade sweeps (parameter grid x random fault plans) are the
   [Nemesis.Detect_campaign] cell of [Nemesis.Sweep]; these are the
   deterministic single-run cells the benchmark baseline records. *)

module Runner = Detect.Runner
module Timeout = Detect.Timeout

type summary = {
  period : int;
  window : int;  (* initial suspicion timeout *)
  seeds : int;
  decided : int;  (* runs where every surviving node decided *)
  mean_latency : float option;  (* virtual time of the first decision *)
  mean_stability : float option;  (* time to a stable omega *)
  suspicions : int;
  false_suspicions : int;
  heartbeats : int;
  heartbeats_per_kvt : float;
  virtual_time : int;  (* summed over the cell's runs *)
  ok : bool;  (* all decided, agreement + validity everywhere *)
}

let crash_at ~victim ~at net =
  Dsim.Engine.schedule (Netsim.Async_net.engine net) ~delay:at (fun () ->
      Netsim.Async_net.crash net victim)

let mean = function
  | [] -> None
  | l ->
      Some (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))

let n = 4
let horizon = 2000
let seeds = 2

let cell ~params ~victim ~crash_time =
  let runs =
    List.init seeds (fun s ->
        Runner.run ~n
          ~seed:(Int64.of_int (s + 1))
          ~params ~horizon ~quiet:true
          ~install:(crash_at ~victim ~at:crash_time)
          ())
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let vt = sum (fun r -> r.Runner.virtual_time) in
  let hb = sum (fun r -> r.Runner.heartbeats_sent) in
  {
    period = params.Timeout.period;
    window = params.Timeout.initial;
    seeds;
    decided =
      List.length (List.filter (fun r -> r.Runner.all_live_decided) runs);
    mean_latency =
      mean
        (List.filter_map
           (fun r -> Option.map float_of_int r.Runner.first_decision)
           runs);
    mean_stability =
      mean
        (List.filter_map
           (fun r -> Option.map float_of_int r.Runner.omega_stable_at)
           runs);
    suspicions = sum (fun r -> r.Runner.suspicions);
    false_suspicions = sum (fun r -> r.Runner.false_suspicions);
    heartbeats = hb;
    heartbeats_per_kvt =
      (if vt = 0 then 0. else 1000. *. float_of_int hb /. float_of_int vt);
    virtual_time = vt;
    ok =
      List.for_all
        (fun r ->
          r.Runner.all_live_decided && r.Runner.agreement_ok
          && r.Runner.validity_ok)
        runs;
  }

let fmt_mean = function None -> "-" | Some m -> Printf.sprintf "%.1f" m

let sweep_windows ppf =
  let cells =
    List.map
      (fun w ->
        let params =
          {
            Timeout.default with
            Timeout.initial = w;
            cap = max Timeout.default.Timeout.cap (4 * w);
          }
        in
        (* killing the stable leader makes the window the price of
           progress: nobody else coordinates until 0 is suspected *)
        cell ~params ~victim:0 ~crash_time:10)
      [ 50; 100; 200; 400 ]
  in
  Table.print ~ppf
    ~title:
      (Printf.sprintf
         "decision latency vs detector stability window (n=%d, leader \
          crash at t=10, %d seeds)"
         n seeds)
    ~headers:
      [ "window"; "latency"; "omega-stable"; "suspicions"; "false"; "ok" ]
    (List.map
       (fun c ->
         [
           string_of_int c.window;
           fmt_mean c.mean_latency;
           fmt_mean c.mean_stability;
           string_of_int c.suspicions;
           string_of_int c.false_suspicions;
           (if c.ok then "yes" else "NO");
         ])
       cells);
  cells

let sweep_periods ppf =
  let cells =
    List.map
      (fun p ->
        let params =
          {
            Timeout.default with
            Timeout.period = p;
            (* keep accuracy: the window must clear the worst benign
               heartbeat gap (period + max latency jitter) at every
               period in the sweep *)
            initial = max Timeout.default.Timeout.initial ((2 * p) + 12);
          }
        in
        (* a permanently-crashed follower keeps the run alive to the
           horizon, so overhead is measured over fixed virtual time *)
        cell ~params ~victim:(n - 1) ~crash_time:5)
      [ 10; 20; 40; 80 ]
  in
  Table.print ~ppf
    ~title:
      (Printf.sprintf
         "heartbeat overhead vs period (n=%d, horizon %d, %d seeds)" n horizon
         seeds)
    ~headers:[ "period"; "hb"; "hb/kvt"; "suspicions"; "false"; "ok" ]
    (List.map
       (fun c ->
         [
           string_of_int c.period;
           string_of_int c.heartbeats;
           Printf.sprintf "%.1f" c.heartbeats_per_kvt;
           string_of_int c.suspicions;
           string_of_int c.false_suspicions;
           (if c.ok then "yes" else "NO");
         ])
       cells);
  cells
