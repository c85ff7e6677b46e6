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
      leader_commit : int;
    }
  | Append_entries_reply of { term : term; success : bool; match_index : int }

let msg_kind = function
  | Request_vote _ -> "rv"
  | Request_vote_reply _ -> "rv-ack"
  | Append_entries { entries = []; _ } -> "ae-commit"
  | Append_entries _ -> "ae"
  | Append_entries_reply _ -> "ae-ack"
