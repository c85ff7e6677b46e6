(** Pluggable one-shot binary consensus backends for the RSM log.

    The replicated-state-machine layer consumes consensus as a black box:
    [CS[sn].propose] in the total-order-broadcast reduction.  A backend
    packages one of the repository's consensus algorithms as exactly that
    box — a function that runs a fresh, deterministic, {e nested}
    sub-simulation deciding a single binary value among [Array.length
    inputs] processors and returns the common decision.

    Faults are modelled at the RSM layer (a crashed replica stops
    proposing and drops out of the participant set), so the nested
    instances themselves run fault-free; they decide the binary
    candidate instances of the log's reduction, whose inputs are split
    by proposer, not by batch contents (see {!Log} for how often that
    is a real disagreement). *)

module type S = sig
  val name : string

  val decide : seed:int64 -> inputs:bool array -> bool * int
  (** Run one one-shot binary consensus instance over the given inputs
      (one per processor) and return the decision together with the
      virtual time the instance took.  The RSM log charges that duration
      to the slot in the {e outer} simulation, so consensus latency is
      what batching amortizes.  Deterministic in [(seed, inputs)].
      [inputs] must be non-empty.

      The duration is the one the full nested run reaches; the Raft,
      Ben-Or and Omega backends stop simulating once their result is
      fixed ({!Dsim.Engine.settle}) and return the same pair. *)
end

type t = (module S)

val ben_or : t
(** Ben-Or's randomized consensus, decomposed (VAC + reconciliator). *)

val phase_king : t
(** Phase-King, decomposed (AC + king conciliator), no Byzantine ids. *)

val raft : t
(** The decentralized Raft variant of paper Section 4.3 (VAC + the
    timing reconciliator) — the paper's own template decomposition. *)

val omega : t
(** Indulgent Paxos with the coordinator elected by the Ω failure
    detector ([lib/detect]) — the fourth decomposition: the
    reconciliator as a failure detector. *)

val all : t list
val name : t -> string
val of_string : string -> t option
