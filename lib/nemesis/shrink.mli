(** Counterexample shrinking for failing fault plans.

    Given a plan whose (deterministic) replay fails some predicate,
    greedily delta-debug it to a {e 1-minimal} counterexample: no single
    step can be removed, and no surviving step weakened (shorter window,
    fewer duplicate copies, smaller delay, coarser partition), without
    the failure disappearing.  Because replays are deterministic in the
    plan, the minimized plan is a standalone reproduction recipe. *)

type 'r oracle = {
  run : Plan.t -> 'r;
      (** deterministic replay, e.g. a campaign cell's [run_plan]
          ({!Campaign.run_plan}); replays may run quiet, since tracing
          never changes the schedule *)
  failing : 'r -> bool;  (** does this replay exhibit the failure? *)
}

type result = {
  plan : Plan.t;  (** the local-minimum failing plan *)
  replays : int;  (** replays spent (including the initial check) *)
  reduced_from : int;  (** action count of the original plan *)
}

val shrink : ?max_replays:int -> 'r oracle -> Plan.t -> result
(** Shrink to a local minimum within [max_replays] (default 400)
    replays; if the budget trips, the best plan found so far is
    returned (still failing — every adopted candidate was verified).
    @raise Invalid_argument if the initial plan does not fail. *)
