(* The large wrapper oracle sweep: the closed-form [Design.design],
   [Design.chain_time] and [Design.time_table] against the chain-count
   sweep ([Wrapper_oracle.check]) on 5,000 seeded cores at every width
   1..128. Too slow for the tier-1 suite, so it lives behind the
   [runtest-slow] alias (`make test-par`); SOCTAM_PAR_SMOKE=1
   (`make test-par-smoke`) checks a twentieth of the cores. *)

module Prng = Soctam_util.Prng
module Core_data = Soctam_model.Core_data

let smoke = Sys.getenv_opt "SOCTAM_PAR_SMOKE" = Some "1"
let cores = if smoke then 250 else 5_000
let max_width = 128

(* Every field, zero included, is drawn on its own, so memory cores,
   I/O-only, bidir-only and scan-only cores all occur. Four envelopes
   of growing size keep both the narrow regime (more cells and chains
   than wrapper chains) and the saturated one (fewer) well covered. *)
let core rng i =
  let scale = [| 4; 16; 48; 128 |].(i mod 4) in
  let count bound =
    if Prng.int rng 5 = 0 then 0 else Prng.int rng (bound + 1)
  in
  let chains = count (min 32 (scale / 4 + 2)) in
  Core_data.make ~id:1
    ~name:(Printf.sprintf "oracle%d" i)
    ~inputs:(count scale) ~outputs:(count scale) ~bidirs:(count (scale / 4))
    ~scan_chains:(List.init chains (fun _ -> 1 + Prng.int rng (2 * scale)))
    ~patterns:(1 + Prng.int rng 500)
    ()

let () =
  let rng = Prng.create 2002L in
  for i = 0 to cores - 1 do
    let c = core rng i in
    match Wrapper_oracle.check c ~max_width with
    | Ok () -> ()
    | Error msg ->
        Format.eprintf "wrapper oracle: %a: %s@." Core_data.pp c msg;
        exit 1
  done;
  Printf.printf "wrapper oracle: %d cores agree at every width 1..%d\n" cores
    max_width
