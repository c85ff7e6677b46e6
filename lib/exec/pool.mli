(** A fixed-size [Domain]-based worker pool for independent seeded runs.

    Campaigns, experiment tables and checker sweeps are all "a set of
    runs": every run owns its engine, clock and RNG streams, so runs
    never share mutable state and can execute on separate domains.  The
    pool preserves the {e determinism boundary}: work items are computed
    in any order, but results always come back in item order, so a
    parallel sweep aggregates to exactly the sequential report.

    Stdlib only ([Domain] + [Atomic]); no domainslib dependency.

    The single-domain contract of {!Dsim.Rng} (and of every simulation
    structure) still holds: [f] must build everything it touches from
    its argument alone.  Nothing is shared between two invocations of
    [f] beyond immutable inputs.  The one exception is reuse within a
    domain: [Rsm.Backend]'s nested runs take a spare engine kept per
    domain and reset it to a fresh engine's state first, so two items on
    one domain reuse its storage but no state, and items on different
    domains never touch the same engine. *)

exception
  Worker_error of { seed : int; exn : exn; backtrace : string }
        (** A work item raised.  [seed] identifies the failing item (the
            seed for {!map_seeded}, the item index for {!map} unless
            [seed_of] says otherwise); [exn] is the original exception
            and [backtrace] its backtrace, captured on the worker. *)

val cores : unit -> int
(** [Domain.recommended_domain_count ()] — the job count [--jobs 0]
    resolves to. *)

val map : jobs:int -> ?seed_of:(int -> int) -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f items] computes [f] over every item on at most [jobs]
    domains (the caller counts as one) and returns the results {e in
    item order} regardless of completion order.  [jobs <= 1] runs
    sequentially in the calling domain, left to right — the bitwise
    reference schedule.  Work is handed out through one atomic cursor,
    so splitting is deterministic in {e which} items run, only their
    interleaving varies.

    If any item raises, the whole map fails with {!Worker_error} after
    every worker has drained; when several items fail, the lowest item
    index wins, so the reported failure is deterministic.  [seed_of]
    maps the failing item's index to the seed named in the error
    (default: the index itself). *)

val map_seeded : jobs:int -> seeds:int array -> (int -> 'a) -> 'a array
(** [map_seeded ~jobs ~seeds f] is [f] over every seed, results in seed
    order.  A failing run raises [Worker_error] carrying the seed. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List clothing over {!map}. *)
