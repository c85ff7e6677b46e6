(* Lift a sequential object onto the replicated consensus log: the
   universal construction over [Rsm].  The runner totally orders the
   object's operations and applies them at every replica; this module
   supplies the [Rsm.Group.machine] every replica runs and turns the
   runner's recorded history into a Wing–Gong verdict.

   The replica state carries the object's state plus a count of applied
   {e state-changing} operations.  The count exists for the [drop_nth]
   mutant: a broken universal construction that computes the n-th
   mutating operation's response but discards its state change — i.e.
   it loses a log entry after acking it.  (Counting mutations rather
   than raw log positions keeps the mutant observable: dropping a
   read's "state change" would be a no-op.)  Every replica applies the
   same ordered log, so every replica drops the same entry: digests
   still agree, the total-order checker stays silent, and only the
   linearizability checker (which compares responses against the
   sequential spec) convicts it. *)

module Make (O : Spec.S) = struct
  module W = Wg.Make (O)

  type state = { inner : O.state; seen : int }

  let app ?drop_nth () : (O.op, state, string) Rsm.Group.machine =
    let apply =
      match drop_nth with
      | None ->
          fun st op ->
            let inner', resp = O.apply st.inner op in
            ({ inner = inner'; seen = st.seen + 1 }, O.resp_to_string resp)
      | Some n ->
          (* [seen] counts mutations here, not log entries, so the digest
             comparison below is what keeps the drop observable. *)
          fun st op ->
            let inner', resp = O.apply st.inner op in
            let effectful =
              not (String.equal (O.digest inner') (O.digest st.inner))
            in
            let inner' = if effectful && n = st.seen then st.inner else inner' in
            ( {
                inner = inner';
                seen = (if effectful then st.seen + 1 else st.seen);
              },
              O.resp_to_string resp )
    in
    let snapshot st =
      String.concat " " [ Store.Codec.int st.seen; O.state_to_string st.inner ]
    in
    let restore s =
      match String.index_opt s ' ' with
      | None -> invalid_arg ("Replicated: malformed snapshot: " ^ s)
      | Some i ->
          {
            seen = int_of_string (String.sub s 0 i);
            inner =
              O.state_of_string
                (String.sub s (i + 1) (String.length s - i - 1));
          }
    in
    {
      Rsm.Group.fresh = (fun () -> { inner = O.init; seen = 0 });
      apply;
      snapshot;
      restore;
      op_to_string = O.op_to_string;
      op_of_string = O.op_of_string;
      digest = (fun st -> O.digest st.inner);
    }

  let events_of_history (hist : O.op Rsm.Runner.hist list) : W.event list =
    List.map
      (fun (h : O.op Rsm.Runner.hist) ->
        {
          W.cid = h.Rsm.Runner.h_cid;
          op = h.h_op;
          resp = h.h_resp;
          invoked = h.h_invoked;
          returned = h.h_returned;
        })
      hist

  let check ?max_states hist = W.check ?max_states (events_of_history hist)

  let violations ?max_states hist =
    W.violations ?max_states (events_of_history hist)
end
