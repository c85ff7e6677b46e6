module Types_c = Consensus.Types
module Net = Netsim.Async_net
module Msg = Decentralized_msg

type ctx = {
  net : Msg.t Net.t;
  me : int;
  faults : int;
  input : int;
  tally : Dec_tally.t;
}

let make_ctx ~net ~me ~faults ~input =
  let n = Net.n net in
  if me < 0 || me >= n then invalid_arg "Decentralized.make_ctx: bad id";
  if 2 * faults >= n then invalid_arg "Decentralized.make_ctx: requires 2t < n";
  { net; me; faults; input; tally = Dec_tally.attach net ~me ~quorum:(n - faults) }

let vac_invoke ctx ~round:m v =
  let n = Net.n ctx.net in
  let t = ctx.faults in
  Dec_tally.forget_below ctx.tally ~phase:(m - 1);
  Net.broadcast ctx.net ~src:ctx.me (Msg.Propose { phase = m; value = v });
  Dsim.Engine.await_cond (Dec_tally.changed ctx.tally) (fun () ->
      Dec_tally.proposers ctx.tally ~phase:m >= n - t);
  Net.broadcast ctx.net ~src:ctx.me
    (Msg.Second { phase = m; ratify = Dec_tally.majority_value ctx.tally ~phase:m ~n });
  Dsim.Engine.await_cond (Dec_tally.changed ctx.tally) (fun () ->
      Dec_tally.second_senders ctx.tally ~phase:m >= n - t);
  (* At most one value can be ratified in a phase: ratification requires a
     strict majority of distinct proposers behind it. *)
  let parting_gift u =
    Net.broadcast ctx.net ~src:ctx.me (Msg.Propose { phase = m + 1; value = u });
    Net.broadcast ctx.net ~src:ctx.me (Msg.Second { phase = m + 1; ratify = Some u })
  in
  match Dec_tally.ratified ctx.tally ~phase:m ~above:t with
  | Some (w, true) ->
      parting_gift w;
      Types_c.Commit w
  | Some (w, false) -> Types_c.Adopt w
  | None -> Types_c.Vacillate v

module Vac = struct
  type nonrec ctx = ctx

  module Value = Consensus.Objects.Int_value

  let invoke = vac_invoke
end

module Reconciliator = struct
  type nonrec ctx = ctx

  module Value = Consensus.Objects.Int_value

  (* Timing-based shake-up: adopt the plurality of the proposals that
     happened to arrive this round, earliest proposer breaking ties.  No
     coin is flipped — all randomness is the network's. *)
  let invoke ctx ~round:m _detected =
    Option.value ~default:ctx.input (Dec_tally.plurality ctx.tally ~phase:m)
end

module Consensus_decentralized = struct
  module T = Consensus.Template.Make_vac (Vac) (Reconciliator)

  let consensus = T.consensus
end
