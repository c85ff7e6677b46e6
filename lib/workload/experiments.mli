(** The designed evaluation suite (see DESIGN.md Section 4 — the paper is
    a brief announcement with no tables or figures, so these experiments
    operationalize its claims; EXPERIMENTS.md records the outcomes).

    Every experiment prints one or more tables and returns a machine-
    readable summary used by the test suite and by EXPERIMENTS.md. *)

type scale = Quick | Full

val seeds_for : scale -> int
(** Seeds per configuration: 10 (Quick) or 40 (Full). *)

(** E1 — Ben-Or: decomposed (VAC + reconciliator) vs monolithic. *)
module E1 : sig
  type row = {
    n : int;
    seeds : int;
    identical_runs : int;  (** seed-for-seed identical decisions & rounds *)
    all_correct : bool;  (** every run decided, agreed, zero violations *)
    mean_rounds_decomposed : float;
    mean_rounds_monolithic : float;
    mean_messages : float;
  }

  val run : ?scale:scale -> Format.formatter -> row list
end

(** E2 — Ben-Or rounds-to-decide across input splits and crash loads. *)
module E2 : sig
  type row = {
    n : int;
    split : string;
    crashes : int;
    rounds : Stats.summary;
    messages : Stats.summary;
    all_correct : bool;
  }

  val run : ?scale:scale -> Format.formatter -> row list

  type coin_row = {
    coin : string;
    coin_n : int;
    coin_rounds : Stats.summary;
    coin_correct : bool;
  }

  val run_coins : ?scale:scale -> Format.formatter -> coin_row list
  (** E2b: the paper's private-coin reconciliator vs a weak common coin —
      expected rounds collapse from heavy-tailed to O(1). *)
end

(** E3 — Phase-King (and Phase-Queen) resilience across Byzantine
    strategies, plus the first-commit counterexample. *)
module E3 : sig
  type row = {
    n : int;
    t : int;
    strategy : string;
    agreement : bool;  (** final decisions agreed in every run *)
    object_violations : int;
    mean_first_commit_round : float;  (** 0 when nobody ever committed *)
  }

  val run :
    ?scale:scale -> ?algorithm:Phase_king.Runner.algorithm -> Format.formatter -> row list

  val counterexample : Format.formatter -> bool
  (** Runs the commit-then-steal scenario; true iff the final-preference
      rule agreed while the first-commit rule disagreed (the expected
      separation). *)
end

(** E4 — King vs Queen message complexity (both quadratic in n; Queen
    spends two lock-step rounds per phase against King's three, at the
    price of tolerating only [t < n/4]). *)
module E4 : sig
  type row = {
    algorithm : string;
    n : int;
    t : int;
    template_rounds : int;
    sync_rounds : int;
    messages : int;
    messages_over_n2 : float;
  }

  val run : ?scale:scale -> Format.formatter -> row list
end

(** E5 — Raft consensus: election and decision latency, fault recovery. *)
module E5 : sig
  type row = {
    n : int;
    fault : string;
    election_time : Stats.summary;  (** virtual time to first leader *)
    decide_time : Stats.summary;  (** virtual time to all-live-decided *)
    terms_used : Stats.summary;
    all_correct : bool;
  }

  val run : ?scale:scale -> Format.formatter -> row list
end

(** E6 — Raft's VAC view: per-term confidence census across timeout
    spreads, and the timer reconciliator's activity. *)
module E6 : sig
  type row = {
    spread : string;
    vacillate : int;
    adopt : int;
    commit : int;
    reconciliations : Stats.summary;
    view_violations : int;
    decide_time : Stats.summary;
  }

  val run : ?scale:scale -> Format.formatter -> row list
end

(** E7 — the Section-5 separation, executable. *)
module E7 : sig
  type row = { case : string; runs : int; witnesses : int; clean : bool }
  (** [witnesses] counts runs exhibiting the phenomenon the case is about
      (property violations for the constructions — expected 0; separation
      scenarios for the counterexamples — expected > 0). *)

  val run : ?scale:scale -> Format.formatter -> row list
end

(** E8 — the cost of modularity: host-time per simulated run,
    decomposed vs monolithic (the statistical version lives in
    [bench/main.ml]). *)
module E8 : sig
  type row = { algorithm : string; variant : string; ms_per_run : float }

  val run : ?scale:scale -> Format.formatter -> row list
end

val run_all :
  ?scale:scale ->
  ?only:string list ->
  ?csv_dir:string ->
  ?jobs:int ->
  Format.formatter ->
  unit
(** Run the listed experiments (default: all) and print their tables.
    With [csv_dir], also write one machine-readable [eN.csv] per table
    into that (existing) directory.  [jobs] (default 1) fans whole
    experiments over that many domains ({!Exec.Pool}); tables and CSVs
    come out in experiment order either way, and every figure except
    E8's wall-clock timings is deterministic. *)
