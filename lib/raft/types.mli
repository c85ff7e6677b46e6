(** Raft wire protocol and log types (paper Figure 1 / Figure 2).

    Log indices are 1-based, as in the Raft paper; index 0 is the empty
    sentinel with term 0.  Commands are opaque strings so the same replica
    code serves both the single-command consensus reduction (a [D&S(v)]
    payload) and the replicated key-value example. *)

type term = int
type command = string

type entry = { entry_term : term; cmd : command }

type msg =
  | Request_vote of {
      term : term;
      candidate_id : int;
      last_log_index : int;
      last_log_term : term;
    }
  | Request_vote_reply of { term : term; granted : bool }
  | Append_entries of {
      term : term;
      leader_id : int;
      prev_log_index : int;
      prev_log_term : term;
      entries : entry list;
          (** [[]] makes this the paper's "second kind" — a pure
              commit-index / heartbeat message *)
      leader_commit : int;
    }
  | Append_entries_reply of { term : term; success : bool; match_index : int }
      (** [match_index] is meaningful only when [success]: the highest log
          index the follower now knows matches the leader's log *)

val msg_kind : msg -> string
(** Short tag for traces: ["rv"], ["rv-ack"], ["ae"], ["ae-commit"],
    ["ae-ack"]. *)
