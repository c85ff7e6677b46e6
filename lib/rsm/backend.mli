(** Pluggable one-shot binary consensus backends for the RSM's log.

    The replicated-state-machine layer consumes consensus as a black box:
    [CS[sn].propose] in the total-order-broadcast reduction.  A backend
    packages one of the repository's consensus protocols as exactly that
    box.  Each backend is the protocol's node code (Ben-Or's and
    Phase-King's decomposed templates, the decentralized Raft template,
    {!Detect.Runner.start}'s Paxos nodes) placed on a network in a
    deterministic, {e nested} sub-simulation: one node per entry of
    [inputs], all run by one private function that settles the engine
    once every node has decided and returns the common decision.  It
    fails with [Failure] if two nodes report different decisions, or if
    none decides.

    The nested run uses the calling domain's spare engine, reset to the
    state a fresh one starts in ({!Dsim.Engine.reset}), so its outcome
    is a fresh engine's; a run that finds the spare in use, or lost
    because an earlier run raised, creates a fresh engine instead.  Each
    domain has its own spare, so runs on different domains share
    nothing.

    Faults are modelled at the RSM layer (a crashed replica stops
    proposing and drops out of the participant set), so the nested
    instances themselves run fault-free; they decide the binary
    candidate instances of {!decide_slot}, whose inputs are split by
    proposer, not by batch contents (see {!decide_slot} for how often
    that is a real disagreement). *)

module type S = sig
  val name : string

  val decide : seed:int64 -> inputs:bool array -> bool * int
  (** Run one one-shot binary consensus instance over the given inputs
      (one per processor) and return the decision together with the
      virtual time the instance took.  {!Group} charges that duration
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

val decide_slot :
  t -> seed:int64 -> slot:int -> opener:int -> (int * 'cmd list) list -> int * int * int
(** [decide_slot b ~seed ~slot ~opener proposals] decides one slot of
    the replicated log: {e which replica's batch fills it?}  [proposals]
    pairs each proposer with its batch (possibly empty), [opener] is the
    proposer that opened the slot.  Returns [(winner, instances,
    duration)]: the proposer whose batch fills the slot, the binary
    instances of [b] it took, and the virtual time they took together.
    Pure: deterministic in its arguments, with no engine of its own
    beyond each instance's nested run.

    The multivalued choice is reduced to binary instances of [b] by the
    classic candidate loop.  Candidates are scanned in ascending
    proposer order, and the first whose instance decides [true] wins.
    Replica [i]'s input to candidate [k]'s instance is "does [i] prefer
    [k]?"; a replica prefers its own batch when it brought one and the
    opener's otherwise.  If every candidate's instance decides [false],
    which validity permits on split inputs, a second, unanimous pass
    over the first non-empty proposer decides by the backends'
    convergence property, mirroring the retry round of
    binary-to-multivalued reductions.  With every batch empty the
    opener wins.  Instance [a] of slot [s] runs on a seed mixed from
    [seed], [s] and [a].

    The loop compares proposers, not batch contents, and the contents
    almost always agree: replicas batch the same pending commands.  So
    each candidate's instance sees a single [true] (its own
    proposer's), usually decides [false], and the unanimous pass is the
    common case, not a rare retry.  On perfbench's [rsm] workload (5
    replicas, Raft) the non-empty proposals of every slot were
    identical, about 96% of slots ended in the unanimous pass, and a
    slot took 5.8 binary instances; [examples/rsm_demo.ml]'s Raft run
    takes 37 instances for 8 slots.  A content-aware reduction would
    need one instance per slot, but it changes every pinned outcome, so
    it belongs to the per-replica log of ROADMAP item 3. *)

val all : t list
val name : t -> string
val of_string : string -> t option
