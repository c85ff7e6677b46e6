module Types = Consensus.Types
module Async_net = Netsim.Async_net

type ctx = {
  net : Messages.t Async_net.t;
  me : int;
  faults : int;
  rng : Dsim.Rng.t;
  tally : Tally.t;
  coin : Common_coin.t option;
}

let make_ctx ?coin ~net ~me ~faults ~rng () =
  let n = Async_net.n net in
  if me < 0 || me >= n then invalid_arg "Ben_or.make_ctx: bad processor id";
  if 2 * faults >= n then invalid_arg "Ben_or.make_ctx: requires 2t < n";
  { net; me; faults; rng; tally = Tally.attach net ~me ~quorum:(n - faults); coin }

(* One VAC invocation: the body of paper Algorithm 5.  All quorum counts
   come from the per-phase tally (distinct senders, O(1) reads), so the
   protocol is duplication-safe and long runs stay linear.

   Termination gadget: a processor about to return [commit] first
   broadcasts its step-1 and step-2 messages for the *next* phase.  The
   template halts on commit, and a silently halted decider is
   indistinguishable from a crash; without the gift, deciders + real
   crashes could exceed the t-budget and deadlock the remaining correct
   processors.  With it, every non-decider enters phase m+1 holding v (by
   coherence), sees full quorums, and commits one phase later. *)
let vac_invoke ctx ~round:m v =
  let n = Async_net.n ctx.net in
  let t = ctx.faults in
  Tally.forget_below ctx.tally ~phase:(m - 1);
  Async_net.broadcast ctx.net ~src:ctx.me (Messages.Report { phase = m; value = v });
  Dsim.Engine.await_cond (Tally.changed ctx.tally) (fun () ->
      Tally.step1_senders ctx.tally ~phase:m >= n - t);
  (* If a strict majority of all n processors reported w, ratify w; at most
     one value can clear that bar. *)
  let step2_msg =
    if Tally.reports_for ctx.tally ~phase:m true > n / 2 then
      Messages.Ratify { phase = m; value = true }
    else if Tally.reports_for ctx.tally ~phase:m false > n / 2 then
      Messages.Ratify { phase = m; value = false }
    else Messages.Question { phase = m }
  in
  Async_net.broadcast ctx.net ~src:ctx.me step2_msg;
  Dsim.Engine.await_cond (Tally.changed ctx.tally) (fun () ->
      Tally.step2_senders ctx.tally ~phase:m >= n - t);
  let commit w = Tally.ratifies_for ctx.tally ~phase:m w > t in
  let adopt w = Tally.ratifies_for ctx.tally ~phase:m w >= 1 in
  let parting_gift u =
    Async_net.broadcast ctx.net ~src:ctx.me
      (Messages.Report { phase = m + 1; value = u });
    Async_net.broadcast ctx.net ~src:ctx.me
      (Messages.Ratify { phase = m + 1; value = u })
  in
  if commit true then begin
    parting_gift true;
    Types.Commit true
  end
  else if commit false then begin
    parting_gift false;
    Types.Commit false
  end
  else if adopt true then Types.Adopt true
  else if adopt false then Types.Adopt false
  else Types.Vacillate v

module Vac = struct
  type nonrec ctx = ctx

  module Value = Consensus.Objects.Bool_value

  let invoke = vac_invoke
end

module Reconciliator = struct
  type nonrec ctx = ctx

  module Value = Consensus.Objects.Bool_value

  (* Paper Algorithm 6 is the [None] case: a private fair coin.  With a
     common coin installed, the same reconciliator slot upgrades Ben-Or to
     Rabin-style expected-constant rounds — the E2 ablation. *)
  let invoke ctx ~round _detected =
    match ctx.coin with
    | None -> Dsim.Rng.bool ctx.rng
    | Some coin -> Common_coin.flip coin ~local_rng:ctx.rng ~round
end

module Consensus_decomposed = struct
  module T = Consensus.Template.Make_vac (Vac) (Reconciliator)

  let consensus = T.consensus
end

(* The textbook fused loop, written independently of the object layer: one
   function, explicit mutable preference, inline message handling.  Used as
   the monolithic baseline the decomposition is compared against. *)
let monolithic_consensus ?(max_rounds = 10_000) ?observer ctx init =
  let observer =
    match observer with Some o -> o | None -> Consensus.Template.null_observer
  in
  let n = Async_net.n ctx.net in
  let t = ctx.faults in
  let v = ref init in
  let decision = ref None in
  let m = ref 0 in
  while !decision = None do
    incr m;
    let m = !m in
    if m > max_rounds then raise (Consensus.Template.No_decision max_rounds);
    Tally.forget_below ctx.tally ~phase:(m - 1);
    Async_net.broadcast ctx.net ~src:ctx.me
      (Messages.Report { phase = m; value = !v });
    Dsim.Engine.await_cond (Tally.changed ctx.tally) (fun () ->
        Tally.step1_senders ctx.tally ~phase:m >= n - t);
    Async_net.broadcast ctx.net ~src:ctx.me
      (if Tally.reports_for ctx.tally ~phase:m true > n / 2 then
         Messages.Ratify { phase = m; value = true }
       else if Tally.reports_for ctx.tally ~phase:m false > n / 2 then
         Messages.Ratify { phase = m; value = false }
       else Messages.Question { phase = m });
    Dsim.Engine.await_cond (Tally.changed ctx.tally) (fun () ->
        Tally.step2_senders ctx.tally ~phase:m >= n - t);
    let r1 = Tally.ratifies_for ctx.tally ~phase:m true
    and r0 = Tally.ratifies_for ctx.tally ~phase:m false in
    let outcome =
      if r1 > t then Types.Commit true
      else if r0 > t then Types.Commit false
      else if r1 >= 1 then Types.Adopt true
      else if r0 >= 1 then Types.Adopt false
      else Types.Vacillate !v
    in
    observer.on_detect ~round:m outcome;
    (match outcome with
    | Types.Commit u ->
        Async_net.broadcast ctx.net ~src:ctx.me
          (Messages.Report { phase = m + 1; value = u });
        Async_net.broadcast ctx.net ~src:ctx.me
          (Messages.Ratify { phase = m + 1; value = u });
        observer.on_decide ~round:m u;
        decision := Some (u, m)
    | Types.Adopt u ->
        observer.on_new_preference ~round:m u;
        v := u
    | Types.Vacillate _ ->
        let u =
          match ctx.coin with
          | None -> Dsim.Rng.bool ctx.rng
          | Some coin -> Common_coin.flip coin ~local_rng:ctx.rng ~round:m
        in
        observer.on_new_preference ~round:m u;
        v := u)
  done;
  match !decision with Some d -> d | None -> assert false
