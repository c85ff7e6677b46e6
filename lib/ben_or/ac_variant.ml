module Types = Consensus.Types
module Net = Netsim.Async_net

type msg =
  | Propose of { phase : int; value : bool }
  | Flag of { phase : int; saw_agreement : bool; value : bool }
  | Suggest of { phase : int; value : bool }

(* Per-phase distinct-sender counters.  For "all values seen so far are
   equal" we keep the first value and a mixed bit — enough because values
   are binary and the checks are monotone. *)
type phase_tally = {
  seen1 : bool array;
  seen2 : bool array;
  seen3 : bool array;
  mutable proposers : int;
  mutable propose_first : bool option;
  mutable propose_mixed : bool;
  mutable flaggers : int;
  mutable any_disagree_flag : bool;
  mutable agree_value : bool option;
  mutable agree_conflict : bool;
  mutable suggesters : int;
  mutable suggest_first : bool option;
  mutable suggest_mixed : bool;
}

type tally = {
  n : int;
  quorum : int;  (* n - t: every wait is for a step count reaching it *)
  changed : Dsim.Engine.queue;  (* signalled when a step count reaches [quorum] *)
  phases : (int, phase_tally) Hashtbl.t;
}

let phase_tally t phase =
  match Hashtbl.find_opt t.phases phase with
  | Some p -> p
  | None ->
      let p =
        {
          seen1 = Array.make t.n false;
          seen2 = Array.make t.n false;
          seen3 = Array.make t.n false;
          proposers = 0;
          propose_first = None;
          propose_mixed = false;
          flaggers = 0;
          any_disagree_flag = false;
          agree_value = None;
          agree_conflict = false;
          suggesters = 0;
          suggest_first = None;
          suggest_mixed = false;
        }
      in
      Hashtbl.replace t.phases phase p;
      p

let note_value first mixed v =
  match !first with
  | None -> first := Some v
  | Some w -> if w <> v then mixed := true

let ingest t env =
  let src = env.Net.src in
  match env.Net.payload with
  | Propose { phase; value } ->
      let p = phase_tally t phase in
      if not p.seen1.(src) then begin
        p.seen1.(src) <- true;
        p.proposers <- p.proposers + 1;
        if p.proposers = t.quorum then Dsim.Engine.signal t.changed;
        let first = ref p.propose_first and mixed = ref p.propose_mixed in
        note_value first mixed value;
        p.propose_first <- !first;
        p.propose_mixed <- !mixed
      end
  | Flag { phase; saw_agreement; value } ->
      let p = phase_tally t phase in
      if not p.seen2.(src) then begin
        p.seen2.(src) <- true;
        p.flaggers <- p.flaggers + 1;
        if p.flaggers = t.quorum then Dsim.Engine.signal t.changed;
        if saw_agreement then begin
          let first = ref p.agree_value and conflict = ref p.agree_conflict in
          note_value first conflict value;
          p.agree_value <- !first;
          p.agree_conflict <- !conflict
        end
        else p.any_disagree_flag <- true
      end
  | Suggest { phase; value } ->
      let p = phase_tally t phase in
      if not p.seen3.(src) then begin
        p.seen3.(src) <- true;
        p.suggesters <- p.suggesters + 1;
        if p.suggesters = t.quorum then Dsim.Engine.signal t.changed;
        let first = ref p.suggest_first and mixed = ref p.suggest_mixed in
        note_value first mixed value;
        p.suggest_first <- !first;
        p.suggest_mixed <- !mixed
      end

type ctx = {
  net : msg Net.t;
  me : int;
  faults : int;
  rng : Dsim.Rng.t;
  coin : Common_coin.t option;
  tally : tally;
}

let make_ctx ?coin ~net ~me ~faults ~rng () =
  let n = Net.n net in
  if me < 0 || me >= n then invalid_arg "Ac_variant.make_ctx: bad processor id";
  if 2 * faults >= n then invalid_arg "Ac_variant.make_ctx: requires 2t < n";
  let tally =
    {
      n;
      quorum = n - faults;
      changed = Dsim.Engine.queue (Net.engine net);
      phases = Hashtbl.create 32;
    }
  in
  Net.set_handler net me (ingest tally);
  { net; me; faults; rng; coin; tally }

(* The committing processor halts immediately (template Alg. 2), which the
   others cannot distinguish from a crash; it therefore leaves behind its
   conciliator contribution for this round and a full set of round-(m+1)
   messages, so survivors keep their quorums.  By AC coherence all values
   concerned are the committed one, so the gifts never inject a foreign
   value. *)
let parting_gift ctx ~phase u =
  Net.broadcast ctx.net ~src:ctx.me (Suggest { phase; value = u });
  Net.broadcast ctx.net ~src:ctx.me (Propose { phase = phase + 1; value = u });
  Net.broadcast ctx.net ~src:ctx.me
    (Flag { phase = phase + 1; saw_agreement = true; value = u });
  Net.broadcast ctx.net ~src:ctx.me (Suggest { phase = phase + 1; value = u })

let ac_invoke ctx ~round:m v =
  let n = Net.n ctx.net in
  let t = ctx.faults in
  Net.broadcast ctx.net ~src:ctx.me (Propose { phase = m; value = v });
  let p = phase_tally ctx.tally m in
  Dsim.Engine.await_cond ctx.tally.changed (fun () -> p.proposers >= n - t);
  let saw_agreement = not p.propose_mixed in
  let flag_value =
    if saw_agreement then Option.value ~default:v p.propose_first else v
  in
  Net.broadcast ctx.net ~src:ctx.me
    (Flag { phase = m; saw_agreement; value = flag_value });
  Dsim.Engine.await_cond ctx.tally.changed (fun () -> p.flaggers >= n - t);
  match (p.any_disagree_flag, p.agree_conflict, p.agree_value) with
  | false, false, Some u ->
      parting_gift ctx ~phase:m u;
      Types.AC_commit u
  | true, _, Some u | _, true, Some u -> Types.AC_adopt u
  | _, _, None -> Types.AC_adopt v

let conciliator_invoke ctx ~round:m result =
  let n = Net.n ctx.net in
  let t = ctx.faults in
  let w = Types.ac_value result in
  Net.broadcast ctx.net ~src:ctx.me (Suggest { phase = m; value = w });
  let p = phase_tally ctx.tally m in
  Dsim.Engine.await_cond ctx.tally.changed (fun () -> p.suggesters >= n - t);
  (* Validity machinery: unanimity among the received suggestions must
     survive; only a visibly split round may fall back to the coin. *)
  if not p.suggest_mixed then Option.value ~default:w p.suggest_first
  else
    match ctx.coin with
    | None -> Dsim.Rng.bool ctx.rng
    | Some coin -> Common_coin.flip coin ~local_rng:ctx.rng ~round:m

module Ac = struct
  type nonrec ctx = ctx

  module Value = Consensus.Objects.Bool_value

  let invoke = ac_invoke
end

module Conciliator = struct
  type nonrec ctx = ctx

  module Value = Consensus.Objects.Bool_value

  let invoke = conciliator_invoke
end

module Consensus_ac = struct
  module T = Consensus.Template.Make_ac (Ac) (Conciliator)

  let consensus = T.consensus
end

let broadcasts_per_round = 3
