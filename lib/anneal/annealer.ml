module Tt = Soctam_core.Time_table
module Prng = Soctam_util.Prng
module Rc = Soctam_core.Run_config
module Outcome = Soctam_core.Outcome
module Checkpoint = Soctam_core.Checkpoint
module Obs = Soctam_obs.Obs
module Json = Soctam_util.Json

type params = {
  iterations : int;
  initial_temperature : float;
  cooling : float;
  seed : int64;
}

let default_params =
  { iterations = 100_000; initial_temperature = 0.; cooling = 0.99995; seed = 1L }

type result = {
  widths : int array;
  assignment : int array;
  time : int;
  accepted : int;
  proposed : int;
  outcome : Outcome.t;
}

(* Mutable annealing state: widths and assignment as growable arrays
   capped at max_tams; energy recomputed in O(cores) per evaluation,
   cheap because times are table lookups. *)
type state = {
  mutable tams : int;
  widths : int array;  (* first [tams] entries meaningful *)
  assignment : int array;
}

let energy table st =
  let loads = Array.make st.tams 0 in
  Array.iteri
    (fun core tam ->
      loads.(tam) <-
        loads.(tam) + Tt.time table ~core ~width:st.widths.(tam))
    st.assignment;
  Soctam_util.Intutil.max_element loads

let copy_state ~max_tams st =
  {
    tams = st.tams;
    widths = Array.sub st.widths 0 max_tams;
    assignment = Array.copy st.assignment;
  }

let copy_into ~src ~dst =
  dst.tams <- src.tams;
  Array.blit src.widths 0 dst.widths 0 (Array.length src.widths);
  Array.blit src.assignment 0 dst.assignment 0 (Array.length src.assignment)

(* Moves return false when inapplicable (state unchanged). *)

let move_shift_wire rng st =
  if st.tams < 2 then false
  else begin
    let src = Prng.int rng st.tams in
    let dst = Prng.int rng st.tams in
    if src = dst || st.widths.(src) <= 1 then false
    else begin
      st.widths.(src) <- st.widths.(src) - 1;
      st.widths.(dst) <- st.widths.(dst) + 1;
      true
    end
  end

let move_reassign rng st =
  if st.tams < 2 then false
  else begin
    let core = Prng.int rng (Array.length st.assignment) in
    let tam = Prng.int rng st.tams in
    if st.assignment.(core) = tam then false
    else begin
      st.assignment.(core) <- tam;
      true
    end
  end

let move_split rng ~max_tams st =
  if st.tams >= max_tams then false
  else begin
    let tam = Prng.int rng st.tams in
    if st.widths.(tam) < 2 then false
    else begin
      let moved = 1 + Prng.int rng (st.widths.(tam) - 1) in
      st.widths.(st.tams) <- moved;
      st.widths.(tam) <- st.widths.(tam) - moved;
      (* Cores stay behind; later reassign moves populate the new TAM,
         but seed it with one random core to make splits useful. *)
      let core = Prng.int rng (Array.length st.assignment) in
      st.assignment.(core) <- st.tams;
      st.tams <- st.tams + 1;
      true
    end
  end

let move_merge rng st =
  if st.tams < 2 then false
  else begin
    let victim = Prng.int rng st.tams in
    let last = st.tams - 1 in
    let into = Prng.int rng (st.tams - 1) in
    (* Swap victim to the end, fold its wires and cores into [into]
       (indices taken in the post-swap numbering). *)
    let swap_w = st.widths.(victim) in
    st.widths.(victim) <- st.widths.(last);
    st.widths.(last) <- swap_w;
    Array.iteri
      (fun core tam ->
        if tam = victim then st.assignment.(core) <- last
        else if tam = last then st.assignment.(core) <- victim)
      st.assignment;
    st.widths.(into) <- st.widths.(into) + st.widths.(last);
    Array.iteri
      (fun core tam -> if tam = last then st.assignment.(core) <- into)
      st.assignment;
    st.tams <- st.tams - 1;
    true
  end

(* -- resume token ---------------------------------------------------------- *)

let tag = "anneal"

(* Int64 words (the rng state) and floats (the temperature schedule)
   travel as 16-digit hex of their raw bits: decimal float printing is
   lossy, and a resumed walk must continue the exact trajectory of the
   interrupted one. *)
let json_hex64 v = Json.String (Printf.sprintf "%016Lx" v)
let json_float_bits f = json_hex64 (Int64.bits_of_float f)

let hex64_field name json =
  match Checkpoint.field name json with
  | Json.String s when String.length s = 16 ->
      String.fold_left
        (fun v c ->
          let d =
            match c with
            | '0' .. '9' -> Char.code c - Char.code '0'
            | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
            | _ ->
                Checkpoint.fail "field %S must be 16 lowercase hex digits" name
          in
          Int64.logor (Int64.shift_left v 4) (Int64.of_int d))
        0L s
  | _ -> Checkpoint.fail "field %S must be 16 lowercase hex digits" name

let float_bits_field name json = Int64.float_of_bits (hex64_field name json)

(* The mid-walk state. *)
type token = {
  k_total_width : int;
  k_max_tams : int;
  k_iterations : int;  (* configured iteration count *)
  k_next_iteration : int;  (* first iteration not yet run *)
  k_seed : int64;  (* configured seed; a resume must configure the same *)
  k_rng : int64;  (* mid-stream splitmix64 state ([Prng.state]) *)
  k_temperature : float;
  k_initial_temperature : float;
  k_cooling : float;
  k_tams : int;  (* live TAM count of the walker *)
  k_widths : int array;  (* walker widths, [k_max_tams] slots *)
  k_assignment : int array;
  k_best : Checkpoint.best_arch option;
  k_accepted : int;
  k_proposed : int;
}

let decode json =
  let k =
    {
      k_total_width = Checkpoint.count_field "total_width" json;
      k_max_tams = Checkpoint.count_field "max_tams" json;
      k_iterations = Checkpoint.count_field "iterations" json;
      k_next_iteration = Checkpoint.count_field "next_iteration" json;
      k_seed = hex64_field "seed" json;
      k_rng = hex64_field "rng" json;
      k_temperature = float_bits_field "temperature" json;
      k_initial_temperature =
        float_bits_field "initial_temperature" json;
      k_cooling = float_bits_field "cooling" json;
      k_tams = Checkpoint.count_field "tams" json;
      k_widths = Checkpoint.ints_field "widths" json;
      k_assignment = Checkpoint.ints_field "assignment" json;
      k_best = Checkpoint.best_of_json (Checkpoint.field "best" json);
      k_accepted = Checkpoint.count_field "accepted" json;
      k_proposed = Checkpoint.count_field "proposed" json;
    }
  in
  Checkpoint.require
    (k.k_next_iteration <= k.k_iterations)
    "anneal cursor is past the end of the schedule";
  if k.k_tams < 1 || k.k_tams > Array.length k.k_widths then
    Checkpoint.fail "anneal TAM count %d out of range" k.k_tams;
  Checkpoint.require (k.k_accepted <= k.k_proposed)
    "anneal accepted exceeds proposed";
  k

(* -- checkpointed run ------------------------------------------------------ *)

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

exception Stopped of Outcome.t

let run_with ?(params = default_params) (cfg : Rc.t) ~table ~total_width =
  if Tt.max_width table < total_width then
    invalid_arg "Annealer: table narrower than total width";
  (match cfg.Rc.tams with
  | Some _ ->
      invalid_arg
        "Annealer: the annealer walks TAM counts freely (P_NPAW only); unset \
         Run_config.tams"
  | None -> ());
  let max_tams = cfg.Rc.max_tams in
  if max_tams < 1 then invalid_arg "Annealer: max_tams must be >= 1";
  if params.iterations < 0 then
    invalid_arg "Annealer: iterations must be >= 0";
  let stats = cfg.Rc.stats in
  let cores = Tt.core_count table in
  let restored = Rc.resumed cfg ~engine:tag decode in
  Option.iter
    (fun k ->
      Checkpoint.require
        (k.k_total_width = total_width)
        "Annealer: resume checkpoint is for a different total width";
      Checkpoint.require
        (k.k_max_tams = max_tams && Array.length k.k_widths = max_tams)
        "Annealer: resume checkpoint was taken under a different max_tams";
      Checkpoint.require
        (Array.length k.k_assignment = cores)
        "Annealer: resume checkpoint is for a different core count";
      Checkpoint.require
        (k.k_iterations = params.iterations
        && Int64.equal k.k_seed params.seed
        && float_bits_equal k.k_cooling params.cooling
        && float_bits_equal k.k_initial_temperature params.initial_temperature
        )
        "Annealer: resume checkpoint was taken under a different annealing \
         schedule")
    restored;
  let st =
    match restored with
    | Some k ->
        {
          tams = k.k_tams;
          widths = Array.copy k.k_widths;
          assignment = Array.copy k.k_assignment;
        }
    | None ->
        {
          tams = 1;
          widths =
            Array.init max_tams (fun i -> if i = 0 then total_width else 0);
          assignment = Array.make cores 0;
        }
  in
  let rng =
    match restored with
    | Some k -> Prng.of_state k.k_rng
    | None -> Prng.create params.seed
  in
  (* The walker's energy is a pure function of its state, so it is
     recomputed on resume instead of being checkpointed. *)
  let current = ref (energy table st) in
  let best_state, best =
    match restored with
    | Some { k_best = Some b; _ } ->
        let widths = Array.make max_tams 0 in
        Array.blit b.Checkpoint.ba_widths 0 widths 0
          (Array.length b.Checkpoint.ba_widths);
        ( {
            tams = Array.length b.Checkpoint.ba_widths;
            widths;
            assignment = Array.copy b.Checkpoint.ba_assignment;
          },
          ref b.Checkpoint.ba_time )
    | Some { k_best = None; _ } | None ->
        (copy_state ~max_tams st, ref !current)
  in
  let temperature =
    ref
      (match restored with
      | Some k -> k.k_temperature
      | None ->
          if params.initial_temperature > 0. then params.initial_temperature
          else 0.1 *. float_of_int !current)
  in
  let accepted =
    ref (match restored with Some k -> k.k_accepted | None -> 0)
  in
  let proposed =
    ref (match restored with Some k -> k.k_proposed | None -> 0)
  in
  let next =
    ref
      (match restored with
      | Some k -> k.k_next_iteration
      | None -> 0)
  in
  let flushed_accepted = ref !accepted in
  let flushed_proposed = ref !proposed in
  let flush () =
    if Obs.enabled stats then begin
      Obs.add stats ~n:(!proposed - !flushed_proposed) "anneal/proposed";
      Obs.add stats ~n:(!accepted - !flushed_accepted) "anneal/accepted"
    end;
    flushed_proposed := !proposed;
    flushed_accepted := !accepted
  in
  let checkpoint_now () =
    let body =
      Json.Obj
        [
          ("total_width", Json.Int total_width);
          ("max_tams", Json.Int max_tams);
          ("iterations", Json.Int params.iterations);
          ("next_iteration", Json.Int !next);
          ("seed", json_hex64 params.seed);
          ("rng", json_hex64 (Prng.state rng));
          ("temperature", json_float_bits !temperature);
          ( "initial_temperature",
            json_float_bits params.initial_temperature );
          ("cooling", json_float_bits params.cooling);
          ("tams", Json.Int st.tams);
          ("widths", Checkpoint.json_ints st.widths);
          ("assignment", Checkpoint.json_ints st.assignment);
          ( "best",
            Checkpoint.best_to_json
              (Some
                 {
                   Checkpoint.ba_widths =
                     Array.sub best_state.widths 0 best_state.tams;
                   ba_time = !best;
                   ba_assignment = best_state.assignment;
                 }) );
          ("accepted", Json.Int !accepted);
          ("proposed", Json.Int !proposed);
        ]
    in
    {
      Checkpoint.soc = cfg.Rc.soc_name;
      counters =
        List.filter
          (fun (_, n) -> n > 0)
          [ ("anneal/proposed", !proposed); ("anneal/accepted", !accepted) ];
      state = Checkpoint.Token { engine = tag; body };
    }
  in
  let deadline = Rc.deadline cfg in
  let slices_done = ref 0 in
  let backup = copy_state ~max_tams st in
  let step () =
    copy_into ~src:st ~dst:backup;
    let changed =
      match Prng.int rng 10 with
      | 0 -> move_split rng ~max_tams st
      | 1 -> move_merge rng st
      | 2 | 3 | 4 -> move_shift_wire rng st
      | 5 | 6 | 7 | 8 | 9 -> move_reassign rng st
      | _ -> assert false
    in
    if changed then begin
      incr proposed;
      let next_e = energy table st in
      let delta = float_of_int (next_e - !current) in
      let accept =
        delta <= 0.
        || Prng.float rng 1.0 < exp (-.delta /. max 1e-9 !temperature)
      in
      if accept then begin
        incr accepted;
        current := next_e;
        if next_e < !best then begin
          best := next_e;
          copy_into ~src:st ~dst:best_state
        end
      end
      else copy_into ~src:backup ~dst:st
    end;
    temperature := !temperature *. params.cooling
  in
  let slice_len = Rc.slice_size cfg ~length:params.iterations in
  let outcome =
    try
      while !next < params.iterations do
        (match
           Rc.boundary cfg ~deadline ~slices:!slices_done checkpoint_now
         with
        | Some o -> raise (Stopped o)
        | None -> ());
        let hi = min (!next + slice_len) params.iterations in
        for _ = !next + 1 to hi do
          step ()
        done;
        next := hi;
        incr slices_done;
        flush ()
      done;
      Rc.retire cfg;
      Outcome.Complete
    with Stopped o ->
      flush ();
      o
  in
  {
    widths = Array.sub best_state.widths 0 best_state.tams;
    assignment = Array.copy best_state.assignment;
    time = !best;
    accepted = !accepted;
    proposed = !proposed;
    outcome;
  }

(* -- engine adapter -------------------------------------------------------- *)

module E (P : sig
  val params : params
end) : Soctam_core.Engine.S = struct
  let name = "anneal"

  let caps =
    {
      Soctam_core.Engine.parallel = false;
      imports_tau = false;
      needs_fixed_tams = false;
      free_tams_only = true;
      proves = false;
    }

  let cert = { Soctam_core.Engine.cert_exact = true; cert_packing = false }

  let check_body json = ignore (decode json)

  let run (cfg : Rc.t) (inst : Soctam_core.Engine.instance) =
    let r =
      run_with ~params:P.params cfg ~table:inst.Soctam_core.Engine.table
        ~total_width:inst.Soctam_core.Engine.total_width
    in
    {
      Soctam_core.Engine.r_widths = r.widths;
      r_time = r.time;
      r_assignment = r.assignment;
      r_outcome = r.outcome;
      r_notes =
        [
          Printf.sprintf "%d/%d moves accepted" r.accepted r.proposed;
        ];
    }
end

let engine ?(params = default_params) () : Soctam_core.Engine.t =
  (module E (struct
    let params = params
  end))
