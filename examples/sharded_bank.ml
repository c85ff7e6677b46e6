(* A bank sharded across four consensus groups — four Rsm.Groups in one
   engine, each replica running its own Shard.Machine.

   Accounts are hash-partitioned over the shards by the router; a
   transfer between accounts on different shards is a cross-shard
   transaction — two W_add write-ops (debit, credit) run through 2PC
   over the consensus logs.  Money conservation is the classic
   atomicity probe: if a commit ever applied at one shard but not the
   other, the total balance drifts.  We check it two ways: the
   cross-shard checker certifies every transaction's votes/outcomes,
   and we sum the final balances directly off a live replica of every
   shard (Rsm.Group.state) — committed and aborted transfers alike must
   leave the total at zero.

     dune exec examples/sharded_bank.exe *)

let shards = 4
let accounts = 64
let clients = 24
let transfers_each = 4

let acct i = Printf.sprintf "acct%d" i

let () =
  Format.printf "sharded bank: %d accounts over %d shards, %d clients x %d \
                 transfers@.@."
    accounts shards clients transfers_each;
  (* Every client's ops are cross-shard transfers between two random
     accounts: debit one, credit the other, atomically or not at all. *)
  let rng = Dsim.Rng.create 99L in
  let ops =
    Array.init clients (fun _ ->
        List.init transfers_each (fun _ ->
            let from_ = Dsim.Rng.int rng accounts in
            let to_ = (from_ + 1 + Dsim.Rng.int rng (accounts - 1)) mod accounts in
            let amount = 1 + Dsim.Rng.int rng 100 in
            Shard.Runner.Tx
              [
                Shard.Cmd.W_add (acct from_, -amount);
                Shard.Cmd.W_add (acct to_, amount);
              ]))
  in
  let cfg =
    {
      (Shard.Runner.default_config ~shards ~ops) with
      Shard.Runner.backend = Rsm.Backend.ben_or;
      seed = 7L;
    }
  in
  let r = Shard.Runner.run cfg in
  Format.printf "%d transfers: %d committed, %d aborted (lock conflicts)@."
    r.Shard.Runner.txs_started r.Shard.Runner.txs_committed
    r.Shard.Runner.txs_aborted;
  (* 1. The checker's verdict on every vote and outcome. *)
  let checker_problems =
    r.Shard.Runner.atomicity @ r.Shard.Runner.tx_completeness
  in
  List.iter
    (fun v -> Format.printf "  %a@." Shard.Checker.pp_violation v)
    checker_problems;
  let shard_problems =
    Array.exists
      (fun (sr : Shard.Runner.shard_report) ->
        sr.Shard.Runner.sr_violations <> []
        || (not sr.Shard.Runner.sr_digests_agree)
        || sr.Shard.Runner.sr_completeness <> [])
      r.Shard.Runner.shard_reports
  in
  (* 2. Money conservation, read off a live replica of every shard. *)
  let total = ref 0 in
  for a = 0 to accounts - 1 do
    let shard = Shard.Router.shard_of_key r.Shard.Runner.router (acct a) in
    let group = r.Shard.Runner.groups.(shard) in
    let replica = List.hd (Rsm.Group.live group) in
    let balance =
      match Shard.Machine.lookup (Rsm.Group.state group replica) (acct a) with
      | Some v -> int_of_string v
      | None -> 0
    in
    total := !total + balance
  done;
  Format.printf "total balance across all shards: %d (must be 0)@." !total;
  if checker_problems = [] && (not shard_problems) && !total = 0 then
    Format.printf
      "@.atomicity certified: every transfer committed everywhere or \
       nowhere; money conserved@."
  else begin
    Format.printf "@.ATOMICITY FAILURE@.";
    exit 1
  end
