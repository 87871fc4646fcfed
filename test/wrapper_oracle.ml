(* The wrapper design oracle: the chain-count sweep [Design.design]
   replaced, kept as test-only code. [check] compares the closed-form
   design against it at every width of a core; test_wrapper runs it over
   the built-in and seeded SOCs, test_wrapper_slow over thousands of
   random cores. *)

module Design = Soctam_wrapper.Design

(* Every chain count's [with_chain_count], and at every width [w] the
   first count in [1 .. w] with the smallest (time, used width). *)
let sweep core ~max_width =
  let designs =
    Array.init max_width (fun n -> Design.with_chain_count core ~chains:(n + 1))
  in
  let best = Array.make max_width designs.(0) in
  for n = 1 to max_width - 1 do
    let cand = designs.(n) and prev = best.(n - 1) in
    best.(n) <-
      (if
         cand.Design.time < prev.Design.time
         || cand.Design.time = prev.Design.time
            && cand.Design.used_width < prev.Design.used_width
       then cand
       else prev)
  done;
  (designs, best)

let first_difference (a : Design.t) (b : Design.t) =
  let open Design in
  if a.time <> b.time then Some "time"
  else if a.used_width <> b.used_width then Some "used_width"
  else if a.requested_width <> b.requested_width then Some "requested_width"
  else if a.scan_in_max <> b.scan_in_max then Some "scan_in_max"
  else if a.scan_out_max <> b.scan_out_max then Some "scan_out_max"
  else if a.scan_in <> b.scan_in then Some "scan_in"
  else if a.scan_out <> b.scan_out then Some "scan_out"
  else if a.layout <> b.layout then Some "layout"
  else None

(* [Ok ()] when, at every width up to [max_width], [Design.design] equals
   the sweep field for field, [Design.chain_time] equals each count's
   [with_chain_count] time and used width, and [Design.time_table]'s
   row is the running minimum of the closed-form time. *)
let check core ~max_width =
  let designs, best = sweep core ~max_width in
  let table = Design.time_table core ~max_width in
  let running = ref max_int in
  let rec at w =
    if w > max_width then Ok ()
    else begin
      let d = designs.(w - 1) in
      let time, used = Design.chain_time core ~chains:w in
      running := min !running time;
      let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
      if time <> d.Design.time || used <> d.Design.used_width then
        fail "chain_time %d = (%d, %d), with_chain_count (%d, %d)" w time used
          d.Design.time d.Design.used_width
      else if table.(w - 1) <> !running then
        fail "time_table width %d = %d, running closed-form minimum %d" w
          table.(w - 1) !running
      else
        match
          first_difference
            (Design.design core ~width:w)
            { (best.(w - 1)) with Design.requested_width = w }
        with
        | Some field ->
            fail "design width %d differs from the sweep in %s" w field
        | None -> at (w + 1)
    end
  in
  at 1
