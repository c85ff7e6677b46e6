(** Pluggable one-shot binary consensus backends for the RSM log.

    The replicated-state-machine layer consumes consensus as a black box:
    [CS[sn].propose] in the total-order-broadcast reduction.  A backend
    packages one of the repository's consensus protocols as exactly that
    box.  Each backend is the protocol's node code (Ben-Or's and
    Phase-King's decomposed templates, the decentralized Raft template,
    {!Detect.Runner.start}'s Paxos nodes) placed on a network in a
    fresh, deterministic, {e nested} sub-simulation: one node per entry
    of [inputs], all run by one private function that settles the
    engine once every node has decided and returns the common
    decision.  It fails with [Failure] if two nodes report different
    decisions, or if none decides.

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
      One input decides itself at no charge.
      @raise Invalid_argument ["Rsm.Backend.decide: empty inputs"] on
      an empty array.

      The duration is the one the full nested run reaches: the nested
      run stops simulating once every node has decided
      ({!Dsim.Engine.settle}) and returns the same pair. *)
end

type t = (module S)

val ben_or : t
(** Ben-Or's randomized consensus, decomposed (VAC + reconciliator),
    over an asynchronous network.  Charges the nested clock. *)

val phase_king : t
(** Phase-King, decomposed (AC + king conciliator), over a synchronous
    network with no Byzantine ids.  Charges 10 per lock-step round. *)

val raft : t
(** The decentralized Raft variant of paper Section 4.3 (VAC + the
    timing reconciliator) — the paper's own template decomposition.
    Charges the nested clock. *)

val omega : t
(** Single-decree Paxos with an Ω-elected coordinator
    ({!Detect.Runner.start}).  It is indulgent — the detector only
    picks who runs rounds — but it is not a {!Consensus.Template}
    decomposition.  Charges the last decision's time. *)

val all : t list
val name : t -> string
val of_string : string -> t option
