module Core_data = Soctam_model.Core_data

type chain_layout = {
  internal_chains : int list;
  input_cells : int;
  output_cells : int;
  bidir_cells : int;
}

type t = {
  requested_width : int;
  used_width : int;
  scan_in : int array;
  scan_out : int array;
  scan_in_max : int;
  scan_out_max : int;
  time : int;
  layout : chain_layout array;
}

(* [Int.max] / [Int.min] throughout: [Stdlib.max] / [min] are
   polymorphic, a C call per use without flambda. *)
let test_time ~patterns ~scan_in ~scan_out =
  ((1 + Int.max scan_in scan_out) * patterns) + Int.min scan_in scan_out

let with_chain_count (core : Core_data.t) ~chains =
  if chains < 1 then invalid_arg "Design.with_chain_count: chains must be >= 1";
  let scan_groups = Int.min chains (Core_data.scan_chain_count core) in
  let scan_in = Array.make chains 0 in
  let scan_out = Array.make chains 0 in
  let internal = Array.make chains [] in
  let input_cells = Array.make chains 0 in
  let output_cells = Array.make chains 0 in
  let bidir_cells = Array.make chains 0 in
  (* Internal scan chains: LPT-balance over the scan-bearing chains. *)
  if scan_groups > 0 then begin
    let packing =
      Soctam_schedule.Makespan.lpt ~durations:core.Core_data.scan_chains
        ~machines:scan_groups
    in
    Array.iteri
      (fun g load ->
        scan_in.(g) <- load;
        scan_out.(g) <- load)
      packing.Soctam_schedule.Makespan.loads;
    Array.iteri
      (fun chain g -> internal.(g) <- chain :: internal.(g))
      packing.Soctam_schedule.Makespan.assignment
  end;
  (* Bidirectional cells: lengthen both sides of the chosen chain; place
     where the max of the two resulting lengths is smallest, then where
     scan-in is shortest, then at the lowest index. *)
  for _ = 1 to core.Core_data.bidirs do
    let best = ref 0 in
    for j = 1 to chains - 1 do
      let cand = Int.max scan_in.(j) scan_out.(j) in
      let cur = Int.max scan_in.(!best) scan_out.(!best) in
      if cand < cur || (cand = cur && scan_in.(j) < scan_in.(!best)) then
        best := j
    done;
    scan_in.(!best) <- scan_in.(!best) + 1;
    scan_out.(!best) <- scan_out.(!best) + 1;
    bidir_cells.(!best) <- bidir_cells.(!best) + 1
  done;
  (* Input cells lengthen scan-in only; output cells scan-out only. *)
  for _ = 1 to core.Core_data.inputs do
    let j = Soctam_util.Select.argmin scan_in in
    scan_in.(j) <- scan_in.(j) + 1;
    input_cells.(j) <- input_cells.(j) + 1
  done;
  for _ = 1 to core.Core_data.outputs do
    let j = Soctam_util.Select.argmin scan_out in
    scan_out.(j) <- scan_out.(j) + 1;
    output_cells.(j) <- output_cells.(j) + 1
  done;
  let used = ref 0 in
  for j = 0 to chains - 1 do
    if scan_in.(j) + scan_out.(j) > 0 then incr used
  done;
  let scan_in_max = Soctam_util.Intutil.max_element scan_in in
  let scan_out_max = Soctam_util.Intutil.max_element scan_out in
  {
    requested_width = chains;
    used_width = !used;
    scan_in;
    scan_out;
    scan_in_max;
    scan_out_max;
    time =
      test_time ~patterns:core.Core_data.patterns ~scan_in:scan_in_max
        ~scan_out:scan_out_max;
    layout =
      Array.init chains (fun j ->
          {
            internal_chains = List.rev internal.(j);
            input_cells = input_cells.(j);
            output_cells = output_cells.(j);
            bidir_cells = bidir_cells.(j);
          });
  }

let validate_layout (core : Core_data.t) design =
  let chains = Array.length design.layout in
  if
    Array.length design.scan_in <> chains
    || Array.length design.scan_out <> chains
  then Error "layout and length arrays disagree on the chain count"
  else begin
    let seen = Array.make (Core_data.scan_chain_count core) false in
    let problem = ref None in
    Array.iteri
      (fun j part ->
        if !problem = None then begin
          let ffs = ref 0 in
          List.iter
            (fun chain ->
              if chain < 0 || chain >= Array.length seen then
                problem := Some "layout names a non-existent internal chain"
              else if seen.(chain) then
                problem := Some "internal chain placed twice"
              else begin
                seen.(chain) <- true;
                ffs := !ffs + core.Core_data.scan_chains.(chain)
              end)
            part.internal_chains;
          if !problem = None then begin
            if part.input_cells < 0 || part.output_cells < 0
               || part.bidir_cells < 0
            then problem := Some "negative cell count"
            else if
              design.scan_in.(j)
              <> !ffs + part.input_cells + part.bidir_cells
            then problem := Some "scan-in length does not match the layout"
            else if
              design.scan_out.(j)
              <> !ffs + part.output_cells + part.bidir_cells
            then problem := Some "scan-out length does not match the layout"
          end
        end)
      design.layout;
    match !problem with
    | Some msg -> Error msg
    | None ->
        if not (Array.for_all (fun b -> b) seen) then
          Error "some internal chain never placed"
        else begin
          let total f =
            Array.fold_left (fun acc p -> acc + f p) 0 design.layout
          in
          if total (fun p -> p.input_cells) <> core.Core_data.inputs then
            Error "input cells lost or invented"
          else if total (fun p -> p.output_cells) <> core.Core_data.outputs
          then Error "output cells lost or invented"
          else if total (fun p -> p.bidir_cells) <> core.Core_data.bidirs then
            Error "bidir cells lost or invented"
          else Ok ()
        end
  end

(* The longest chain after [units] cells go one at a time onto the
   shortest of [zeros] empty chains and chains of the ascending [loads]:
   the least level [l] with sum (l - load) over the [count] chains below
   it reaching [units], or the longest load when that is higher. *)
let fill_max ~zeros loads units =
  let g = Array.length loads in
  let top = if g = 0 then 0 else loads.(g - 1) in
  let rec level count sum next =
    if next < g && (count = 0 || (count * loads.(next)) - sum < units) then
      level (count + 1) (sum + loads.(next)) (next + 1)
    else Int.max top (Soctam_util.Intutil.ceil_div (units + sum) count)
  in
  if units = 0 then top else level zeros 0 0

let sorted_chains (core : Core_data.t) =
  let a = Array.copy core.Core_data.scan_chains in
  Array.sort Int.compare a;
  a

(* [with_chain_count]'s time and used width without its layout. Bidirs
   keep scan-in equal to scan-out on every chain, so each goes to the
   lowest scan-in, lowest index: the inputs' own rule. Scan-in is thus
   one fill of bidirs + inputs onto the LPT loads, scan-out one of
   bidirs + outputs, and both fills take the empty chains in index
   order. [sorted] is the core's chain lengths ascending, the LPT loads
   whenever every chain has a wrapper chain of its own. *)
let chain_time_sorted (core : Core_data.t) ~sorted ~chains =
  let k = Array.length sorted in
  let zeros, loads =
    if chains >= k then (chains - k, sorted)
    else begin
      (* [Makespan.lpt]'s loads: longest chain first, each onto the first
         least-loaded wrapper chain. [sorted] is already in order, so
         this skips [lpt]'s per-call index sort and assignment array. *)
      let loads = Array.make chains 0 in
      for j = k - 1 downto 0 do
        let m = ref 0 in
        for i = 1 to chains - 1 do
          if loads.(i) < loads.(!m) then m := i
        done;
        loads.(!m) <- loads.(!m) + sorted.(j)
      done;
      Array.sort Int.compare loads;
      (0, loads)
    end
  in
  let cells_in = core.Core_data.bidirs + core.Core_data.inputs in
  let cells_out = core.Core_data.bidirs + core.Core_data.outputs in
  let scan_groups = Int.min chains k in
  ( test_time ~patterns:core.Core_data.patterns
      ~scan_in:(fill_max ~zeros loads cells_in)
      ~scan_out:(fill_max ~zeros loads cells_out),
    scan_groups
    + Int.min (chains - scan_groups) (Int.max cells_in cells_out) )

let chain_time core ~chains =
  if chains < 1 then invalid_arg "Design.chain_time: chains must be >= 1";
  chain_time_sorted core ~sorted:(sorted_chains core) ~chains

let design core ~width =
  if width < 1 then invalid_arg "Design.design: width must be >= 1";
  let sorted = sorted_chains core in
  (* From one wrapper chain per internal chain and per cell on, the
     fills and the used width stay constant: no later count is better. *)
  let limit =
    Int.min width
      (Int.max 1
         (Array.length sorted
         + core.Core_data.bidirs
         + Int.max core.Core_data.inputs core.Core_data.outputs))
  in
  let time1, used1 = chain_time_sorted core ~sorted ~chains:1 in
  let best = ref 1 and best_time = ref time1 and best_used = ref used1 in
  for n = 2 to limit do
    let time, used = chain_time_sorted core ~sorted ~chains:n in
    if time < !best_time || (time = !best_time && used < !best_used) then begin
      best := n;
      best_time := time;
      best_used := used
    end
  done;
  { (with_chain_count core ~chains:!best) with requested_width = width }

let time_table core ~max_width =
  if max_width < 1 then invalid_arg "Design.time_table: max_width must be >= 1";
  let times = Array.make max_width 0 in
  let best = ref max_int in
  for n = 1 to max_width do
    let cand = with_chain_count core ~chains:n in
    if cand.time < !best then best := cand.time;
    times.(n - 1) <- !best
  done;
  times

let max_useful_width ?(cap = 256) core =
  (* Enough chains to isolate every internal chain and every cell reach
     the floor, so the search below this bound is exhaustive. *)
  let open Core_data in
  let natural =
    scan_chain_count core
    + Int.max (core.inputs + core.bidirs) (core.outputs + core.bidirs)
  in
  let limit = Int.max 1 (Int.min cap natural) in
  let times = time_table core ~max_width:limit in
  let rec first_stable w =
    if w <= 1 then 1
    else if times.(w - 2) > times.(w - 1) then w
    else first_stable (w - 1)
  in
  first_stable limit

let pareto_widths core ~max_width =
  let times = time_table core ~max_width in
  let rec collect w prev acc =
    if w > max_width then List.rev acc
    else begin
      let t = times.(w - 1) in
      if t < prev then collect (w + 1) t ((w, t) :: acc)
      else collect (w + 1) prev acc
    end
  in
  collect 1 max_int []

let pp ppf t =
  Format.fprintf ppf
    "@[<h>wrapper: width %d (used %d), si_max %d, so_max %d, time %d@]"
    t.requested_width t.used_width t.scan_in_max t.scan_out_max t.time

let pp_layout ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun j part ->
      let internal =
        match part.internal_chains with
        | [] -> "no internal chains"
        | chains ->
            Printf.sprintf "internal %s"
              (String.concat ","
                 (List.map (fun c -> string_of_int (c + 1)) chains))
      in
      Format.fprintf ppf
        "chain %2d: %s + %d in + %d out + %d bidir  (si %d, so %d)@," (j + 1)
        internal part.input_cells part.output_cells part.bidir_cells
        t.scan_in.(j) t.scan_out.(j))
    t.layout;
  Format.fprintf ppf "@]"
