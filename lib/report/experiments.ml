module Co = Soctam_core.Co_optimize
module Pe = Soctam_core.Partition_evaluate
module Tt = Soctam_core.Time_table
module Arch = Soctam_tam.Architecture

type cell = {
  partition : int array;
  time : int;
  cpu : float;
  complete : bool;
}

type context = {
  exhaustive_budget : float;
  widths : int list;
  socs : (string, Soctam_model.Soc.t) Hashtbl.t;
  tables : (string, Tt.t) Hashtbl.t;
  exhaustive : (string * int * int, cell) Hashtbl.t;
  new_fixed : (string * int * int, cell) Hashtbl.t;
  npaw : (string * int, Co.t * cell) Hashtbl.t;
}

let context ?(exhaustive_budget = 20.) ?(widths = Paper_ref.widths) () =
  {
    exhaustive_budget;
    widths;
    socs = Hashtbl.create 8;
    tables = Hashtbl.create 8;
    exhaustive = Hashtbl.create 64;
    new_fixed = Hashtbl.create 64;
    npaw = Hashtbl.create 64;
  }

let memo table key compute =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.add table key v;
      v

let soc ctx name =
  memo ctx.socs name (fun () ->
      match Soctam_soc_data.Philips.by_name name with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "unknown benchmark SOC %S" name))

let max_sweep_width ctx =
  List.fold_left max 1 ctx.widths

(* One table per SOC, rebuilt wider when a cell needs more width than
   the memo holds (the ablations run up to W = 64 whatever the sweep).
   T_i(w) does not depend on the build's max width, so cells computed
   on the narrower table stay valid. *)
let table_upto ctx name ~width =
  match Hashtbl.find_opt ctx.tables name with
  | Some t when Tt.max_width t >= width -> t
  | Some _ | None ->
      let t =
        Tt.build (soc ctx name) ~max_width:(max width (max_sweep_width ctx))
      in
      Hashtbl.replace ctx.tables name t;
      t

let time_table ctx name = table_upto ctx name ~width:(max_sweep_width ctx)

let exhaustive_cell ctx ~soc:name ~tams ~w =
  memo ctx.exhaustive (name, tams, w) (fun () ->
      let table = table_upto ctx name ~width:w in
      let result, cpu =
        Soctam_util.Timer.time (fun () ->
            Soctam_core.Exhaustive.run_with
              Soctam_core.Run_config.(
                default |> with_time_budget ctx.exhaustive_budget)
              ~table ~total_width:w ~tams)
      in
      {
        partition = result.Soctam_core.Exhaustive.widths;
        time = result.Soctam_core.Exhaustive.time;
        cpu;
        complete =
          Soctam_core.Outcome.is_complete
            result.Soctam_core.Exhaustive.outcome;
      })

let new_fixed_cell ctx ~soc:name ~tams ~w =
  memo ctx.new_fixed (name, tams, w) (fun () ->
      let table = table_upto ctx name ~width:w in
      let result, cpu =
        Soctam_util.Timer.time (fun () ->
            Co.run_with
              Soctam_core.Run_config.(
                default |> with_table table |> with_tams tams)
              (soc ctx name) ~total_width:w)
      in
      {
        partition = result.Co.architecture.Arch.widths;
        time = result.Co.final_time;
        cpu;
        complete = result.Co.final_proven_optimal;
      })

(* The pipeline's P_NPAW run (B <= 10) at one width, kept whole: the
   P_NPAW tables read its final cell, the final-step ablation its
   heuristic time. *)
let npaw_run ctx ~soc:name ~w =
  memo ctx.npaw (name, w) (fun () ->
      let table = table_upto ctx name ~width:w in
      let result, cpu =
        Soctam_util.Timer.time (fun () ->
            Co.run_with
              Soctam_core.Run_config.(
                default |> with_max_tams 10 |> with_table table)
              (soc ctx name) ~total_width:w)
      in
      ( result,
        {
          partition = result.Co.architecture.Arch.widths;
          time = result.Co.final_time;
          cpu;
          complete = result.Co.final_proven_optimal;
        } ))

let npaw_cell ctx ~soc ~w = snd (npaw_run ctx ~soc ~w)

let pe_run ?(carry_tau = true) ~table ~total_width ~max_tams () =
  Pe.run_with
    Soctam_core.Run_config.(
      default |> with_carry_tau carry_tau |> with_max_tams max_tams)
    ~table ~total_width

(* Formatting helpers. *)

let partition_string widths =
  Array.to_list widths |> List.map string_of_int |> String.concat "+"

let pct_string v = Printf.sprintf "%+.2f" v

let delta_pct ~reference ~value =
  100. *. (float_of_int value -. float_of_int reference)
  /. float_of_int reference

let cpu_string c =
  if c < 0.0995 then Printf.sprintf "%.0fms" (c *. 1000.)
  else Printf.sprintf "%.2f" c

let flag cell = if cell.complete then "" else "*"

let paper_fixed_time ~soc ~tams ~method_ ~w =
  Paper_ref.fixed ~soc ~tams ~method_
  |> List.find_opt (fun (r : Paper_ref.fixed_row) -> r.Paper_ref.w = w)
  |> Option.map (fun (r : Paper_ref.fixed_row) -> r.Paper_ref.time)

(* A combined "exhaustive vs new" table for one SOC and TAM count. *)
let fixed_table ctx ~soc:name ~tams ~title =
  let t =
    Texttable.create ~title
      ~columns:
        [
          ("W", Texttable.Right);
          ("exh partition", Texttable.Left);
          ("T_exh", Texttable.Right);
          ("cpu_exh(s)", Texttable.Right);
          ("new partition", Texttable.Left);
          ("T_new", Texttable.Right);
          ("cpu_new(s)", Texttable.Right);
          ("dT%", Texttable.Right);
          ("paper dT%", Texttable.Right);
          ("paper T_exh", Texttable.Right);
          ("paper T_new", Texttable.Right);
        ]
  in
  let any_incomplete = ref false in
  List.iter
    (fun w ->
      let exh = exhaustive_cell ctx ~soc:name ~tams ~w in
      let nw = new_fixed_cell ctx ~soc:name ~tams ~w in
      if not exh.complete then any_incomplete := true;
      let paper_delta =
        match
          ( paper_fixed_time ~soc:name ~tams ~method_:`Exhaustive ~w,
            paper_fixed_time ~soc:name ~tams ~method_:`New ~w )
        with
        | Some e, Some n -> pct_string (delta_pct ~reference:e ~value:n)
        | _ -> "-"
      in
      let paper_cell m =
        match paper_fixed_time ~soc:name ~tams ~method_:m ~w with
        | Some v -> string_of_int v
        | None -> "-"
      in
      Texttable.add_row t
        [
          string_of_int w;
          partition_string exh.partition ^ flag exh;
          string_of_int exh.time;
          cpu_string exh.cpu;
          partition_string nw.partition;
          string_of_int nw.time;
          cpu_string nw.cpu;
          pct_string (delta_pct ~reference:exh.time ~value:nw.time);
          paper_delta;
          paper_cell `Exhaustive;
          paper_cell `New;
        ])
    ctx.widths;
  if !any_incomplete then
    Texttable.add_note t
      "* exhaustive baseline hit its budget; its value is an incumbent \
       (the paper reports the analogous runs as 'did not complete')";
  t

(* P_NPAW table for one SOC (paper Tables 3, 7, 13, 19). *)
let npaw_table ctx ~soc:name ~title =
  let t =
    Texttable.create ~title
      ~columns:
        [
          ("W", Texttable.Right);
          ("B", Texttable.Right);
          ("partition", Texttable.Left);
          ("T_new", Texttable.Right);
          ("cpu(s)", Texttable.Right);
          ("dT% vs exh B<=3", Texttable.Right);
          ("paper B", Texttable.Right);
          ("paper partition", Texttable.Left);
          ("paper T", Texttable.Right);
          ("paper dT%", Texttable.Right);
        ]
  in
  let paper_rows = Paper_ref.npaw ~soc:name in
  List.iter
    (fun w ->
      let cell = npaw_cell ctx ~soc:name ~w in
      let exh_best =
        List.filter_map
          (fun tams ->
            let c = exhaustive_cell ctx ~soc:name ~tams ~w in
            Some c.time)
          [ 2; 3 ]
        |> List.fold_left min max_int
      in
      let paper =
        List.find_opt
          (fun (r : Paper_ref.npaw_row) -> r.Paper_ref.w = w)
          paper_rows
      in
      Texttable.add_row t
        [
          string_of_int w;
          string_of_int (Array.length cell.partition);
          partition_string cell.partition;
          string_of_int cell.time;
          cpu_string cell.cpu;
          pct_string (delta_pct ~reference:exh_best ~value:cell.time);
          (match paper with
          | Some p -> string_of_int p.Paper_ref.tams
          | None -> "-");
          (match paper with Some p -> p.Paper_ref.partition | None -> "-");
          (match paper with
          | Some p -> string_of_int p.Paper_ref.time
          | None -> "-");
          (match paper with
          | Some p -> pct_string p.Paper_ref.delta_pct
          | None -> "-");
        ])
    ctx.widths;
  Texttable.add_note t
    "dT% compares against the best exhaustive result over B in {2, 3} \
     measured here (budget-limited), as the paper compares against [8]";
  t

(* Data-range tables (paper Tables 4, 8, 14). *)
let ranges_table ctx ~soc:name ~title =
  let s = soc ctx name in
  let t =
    Texttable.create ~title
      ~columns:
        [
          ("circuit", Texttable.Left);
          ("count", Texttable.Right);
          ("patterns", Texttable.Left);
          ("functional I/Os", Texttable.Left);
          ("scan chains", Texttable.Left);
          ("chain lengths", Texttable.Left);
        ]
  in
  let range_str values =
    match values with
    | [] -> "-"
    | _ ->
        let lo = List.fold_left min max_int values in
        let hi = List.fold_left max 0 values in
        Printf.sprintf "%d-%d" lo hi
  in
  let describe label cores =
    let patterns =
      List.map (fun c -> c.Soctam_model.Core_data.patterns) cores
    in
    let ios = List.map Soctam_model.Core_data.terminals cores in
    let chains = List.map Soctam_model.Core_data.scan_chain_count cores in
    let lengths =
      List.concat_map
        (fun c ->
          Array.to_list c.Soctam_model.Core_data.scan_chains)
        cores
    in
    Texttable.add_row t
      [
        label;
        string_of_int (List.length cores);
        range_str patterns;
        range_str ios;
        range_str chains;
        range_str lengths;
      ]
  in
  describe "logic" (Soctam_model.Soc.logic_cores s);
  describe "memory" (Soctam_model.Soc.memory_cores s);
  Texttable.add_note t
    (Printf.sprintf "generated test complexity %d (SOC name target %s)"
       (Soctam_model.Soc.test_complexity s)
       (String.sub name 1 (String.length name - 1)));
  t

(* Table 1: partition-space pruning efficiency on p21241, B = 6 and 8. *)
let table1 ctx =
  let name = "p21241" in
  let table = time_table ctx name in
  let t =
    Texttable.create
      ~title:
        "Table 1: Partition_evaluate pruning efficiency (p21241, B = 6 and \
         B = 8)"
      ~columns:
        [
          ("W", Texttable.Right);
          ("p(W,6) est", Texttable.Right);
          ("p(W,6) exact", Texttable.Right);
          ("N_eval6", Texttable.Right);
          ("E6", Texttable.Right);
          ("p(W,8) est", Texttable.Right);
          ("p(W,8) exact", Texttable.Right);
          ("N_eval8", Texttable.Right);
          ("E8", Texttable.Right);
          ("paper N6/N8", Texttable.Right);
        ]
  in
  List.iter
    (fun row ->
      let w = row.Paper_ref.w1 in
      let pe = pe_run ~carry_tau:false ~table ~total_width:w ~max_tams:8 () in
      let stat b = pe.Pe.per_b.(b - 1) in
      let est b =
        int_of_float (Soctam_partition.Count.estimate ~total:w ~parts:b)
      in
      let s6 = stat 6 and s8 = stat 8 in
      Texttable.add_row t
        [
          string_of_int w;
          string_of_int (est 6);
          string_of_int s6.Pe.unique_partitions;
          string_of_int s6.Pe.completed;
          Printf.sprintf "%.3f" (Pe.efficiency s6);
          string_of_int (est 8);
          string_of_int s8.Pe.unique_partitions;
          string_of_int s8.Pe.completed;
          Printf.sprintf "%.3f" (Pe.efficiency s8);
          Printf.sprintf "%d/%d" row.Paper_ref.eval_b6 row.Paper_ref.eval_b8;
        ])
    Paper_ref.table1;
  Texttable.add_note t
    "N_eval counts partitions evaluated to completion by Core_assign; E = \
     N_eval / p(W,B) exact";
  Texttable.add_note t
    "tau resets per TAM count (the paper's Figure 3 line 6); the pipeline \
     default carries tau across B and prunes even harder";
  t

(* -- Ablations of the paper's design arguments --------------------------- *)

(* Each ablation fixes its own SOCs and widths, independent of the
   context's sweep. *)

(* Every partition evaluated to completion, tau early exit off: isolates
   the value of the paper's Core_assign lines 18-20. Returns the best
   time and the number of partitions evaluated. *)
let evaluate_all_partitions ~table ~total_width ~max_tams =
  let best = ref max_int and evaluated = ref 0 in
  for tams = 1 to max_tams do
    Soctam_partition.Enumerate.iter ~total:total_width ~parts:tams
      (fun widths ->
        incr evaluated;
        match Soctam_core.Core_assign.run_table ~table ~widths () with
        | Soctam_core.Core_assign.Assigned { time; _ } ->
            if time < !best then best := time
        | Soctam_core.Core_assign.Exceeded _ -> assert false)
  done;
  (!best, !evaluated)

(* Figure 3's tau pruning: carried across B (the pipeline), reset per B
   (the paper's line 6), and off. *)
let ablation_tau ctx ~title =
  let t =
    Texttable.create ~title
      ~columns:
        [
          ("W", Texttable.Right);
          ("variant", Texttable.Left);
          ("best T", Texttable.Right);
          ("completed", Texttable.Right);
          ("cpu", Texttable.Right);
        ]
  in
  let completed r =
    Array.fold_left (fun acc s -> acc + s.Pe.completed) 0 r.Pe.per_b
  in
  List.iter
    (fun w ->
      let table = table_upto ctx "p21241" ~width:w in
      let row variant run =
        let (best, n), cpu = Soctam_util.Timer.time run in
        Texttable.add_row t
          [
            string_of_int w; variant; string_of_int best; string_of_int n;
            cpu_string cpu;
          ]
      in
      let pe carry_tau () =
        let r = pe_run ~carry_tau ~table ~total_width:w ~max_tams:8 () in
        (r.Pe.time, completed r)
      in
      row "tau carried (pipeline)" (pe true);
      row "tau reset per B (Fig. 3)" (pe false);
      row "no pruning" (fun () ->
          evaluate_all_partitions ~table ~total_width:w ~max_tams:8))
    [ 32; 48; 64 ];
  t

(* Section 3.1: enumerating compositions and discarding permuted
   duplicates "grows exponentially with B and severely limits
   scalability"; the bounded Increment enumeration never generates a
   duplicate. *)
let ablation_enumeration ~title =
  let module C = Soctam_partition.Enumerate.Compositions in
  let t =
    Texttable.create ~title
      ~columns:
        [
          ("W", Texttable.Right);
          ("B", Texttable.Right);
          ("unique p(W,B)", Texttable.Right);
          ("compositions generated", Texttable.Right);
          ("dedup memory", Texttable.Right);
          ("blow-up", Texttable.Right);
        ]
  in
  List.iter
    (fun (w, b) ->
      let stats = C.count ~total:w ~parts:b in
      Texttable.add_row t
        [
          string_of_int w;
          string_of_int b;
          string_of_int stats.C.unique;
          string_of_int stats.C.compositions;
          string_of_int stats.C.memory_entries;
          Printf.sprintf "%.0fx"
            (float_of_int stats.C.compositions
            /. float_of_int (max 1 stats.C.unique));
        ])
    [ (16, 4); (24, 4); (24, 6); (32, 6); (32, 8); (40, 8) ];
  Texttable.add_note t
    "the Increment odometer generates exactly the 'unique' column with \
     zero dedup memory; the naive method pays the 'compositions' column \
     and retains every canonical form";
  t

(* Are the paper's deterministic tie-breaking rules (Core_assign lines
   11-16) worth anything over random tie-breaking? *)
let ablation_tie_breaks ctx ~title =
  let module Ca = Soctam_core.Core_assign in
  let t =
    Texttable.create ~title
      ~columns:
        [
          ("soc", Texttable.Left);
          ("partition", Texttable.Left);
          ("paper rules", Texttable.Right);
          ("random x1", Texttable.Right);
          ("random x10", Texttable.Right);
          ("random x100", Texttable.Right);
          ("exact", Texttable.Right);
        ]
  in
  List.iter
    (fun (name, widths) ->
      let width = Soctam_util.Intutil.sum widths in
      let table = table_upto ctx name ~width in
      let times = Tt.matrix table ~widths in
      let paper =
        match Ca.run ~times ~widths () with
        | Ca.Assigned { time; _ } -> time
        | Ca.Exceeded _ -> assert false
      in
      let random restarts =
        snd
          (Ca.run_randomized
             ~rng:(Soctam_util.Prng.create 7L)
             ~restarts ~times ~widths ())
      in
      let exact =
        (Soctam_ilp.Exact.solve_bb ~widths ~times ()).Soctam_ilp.Exact.time
      in
      Texttable.add_row t
        (name :: partition_string widths
        :: List.map string_of_int
             [ paper; random 1; random 10; random 100; exact ]))
    [
      ("d695", [| 16; 16; 16 |]);
      ("d695", [| 8; 16; 24 |]);
      ("p21241", [| 8; 16; 24 |]);
      ("p31108", [| 8; 16; 24 |]);
      ("p93791", [| 8; 16; 24 |]);
    ];
  Texttable.add_note t
    "ties are rare on industrial-size time tables, so the paper's \
     width-aware tie-breaks and random tie-breaks usually coincide; the \
     rules matter on small or hand-crafted instances like Fig. 2";
  t

(* Section 4.2: does the final exact step matter, and does the heuristic
   hand it the right partition? *)
let ablation_final_step ctx ~title =
  let t =
    Texttable.create ~title
      ~columns:
        [
          ("soc", Texttable.Left);
          ("W", Texttable.Right);
          ("T_heuristic", Texttable.Right);
          ("T_final", Texttable.Right);
          ("gain%", Texttable.Right);
        ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun w ->
          let r, _ = npaw_run ctx ~soc:name ~w in
          Texttable.add_row t
            [
              name;
              string_of_int w;
              string_of_int r.Co.heuristic_time;
              string_of_int r.Co.final_time;
              Printf.sprintf "%.2f"
                (100.
                *. float_of_int (r.Co.heuristic_time - r.Co.final_time)
                /. float_of_int r.Co.heuristic_time);
            ])
        [ 16; 32; 64 ])
    [ "d695"; "p31108"; "p93791" ];
  Texttable.add_note t
    "the paper notes the heuristic partition is not always the one that \
     wins after exact optimization - compare adjacent rows above";
  t

(* How much does allowing more TAMs buy? The paper's motivation for
   scaling beyond B = 3. *)
let ablation_max_tams ctx ~title =
  let bs = [ 1; 2; 3; 4; 6; 8; 10 ] in
  let t =
    Texttable.create ~title
      ~columns:
        (("soc", Texttable.Left)
        :: List.map (fun b -> (Printf.sprintf "B<=%d" b, Texttable.Right)) bs)
  in
  List.iter
    (fun name ->
      let table = table_upto ctx name ~width:48 in
      Texttable.add_row t
        (name
        :: List.map
             (fun max_tams ->
               string_of_int
                 (pe_run ~table ~total_width:48 ~max_tams ()).Pe.time)
             bs))
    [ "d695"; "p21241"; "p31108"; "p93791" ];
  Texttable.add_note t
    "times are heuristic, before the final exact step; monotone \
     non-increasing left to right";
  t

let table_ids =
  [
    "t1"; "t2"; "t3"; "t4"; "t5_6"; "t7"; "t8"; "t9_10"; "t11_12"; "t13";
    "t14"; "t15_16"; "t17_18"; "t19"; "ab_tau"; "ab_enum"; "ab_ties";
    "ab_final"; "ab_tams";
  ]

let description = function
  | "t1" -> "Partition_evaluate pruning efficiency on p21241 (Table 1)"
  | "t2" -> "d695, B = 2 and B = 3: exhaustive vs new method (Tables 2a-d)"
  | "t3" -> "d695 P_NPAW, B <= 10 (Table 3)"
  | "t4" -> "p21241 core test data ranges (Table 4)"
  | "t5_6" -> "p21241, B = 2: exhaustive vs new method (Tables 5-6)"
  | "t7" -> "p21241 P_NPAW, B <= 10 (Table 7)"
  | "t8" -> "p31108 core test data ranges (Table 8)"
  | "t9_10" -> "p31108, B = 2: exhaustive vs new method (Tables 9-10)"
  | "t11_12" -> "p31108, B = 3: exhaustive vs new method (Tables 11-12)"
  | "t13" -> "p31108 P_NPAW, B <= 10 (Table 13)"
  | "t14" -> "p93791 core test data ranges (Table 14)"
  | "t15_16" -> "p93791, B = 2: exhaustive vs new method (Tables 15-16)"
  | "t17_18" -> "p93791, B = 3: exhaustive vs new method (Tables 17-18)"
  | "t19" -> "p93791 P_NPAW, B <= 10 (Table 19)"
  | "ab_tau" ->
      "ablation: tau pruning carried, reset per B or off (p21241, B <= 8; \
       Figure 3)"
  | "ab_enum" ->
      "ablation: Increment enumeration vs the naive enumeration-comparison \
       method (Section 3.1)"
  | "ab_ties" ->
      "ablation: Core_assign tie-breaking, paper rules vs random restarts \
       (W = 48, B = 3)"
  | "ab_final" ->
      "ablation: value of the final exact optimization step (P_NPAW, \
       Section 4.2)"
  | "ab_tams" -> "ablation: P_NPAW time vs permitted number of TAMs (W = 48)"
  | _ -> raise Not_found

let run ctx id =
  let titled name = Printf.sprintf "%s: %s" id (description name) in
  match id with
  | "t1" -> table1 ctx
  | "t2" ->
      (* Both TAM counts in one table, distinguished by a B column. *)
      let t =
        Texttable.create ~title:(titled "t2")
          ~columns:
            [
              ("B", Texttable.Right);
              ("W", Texttable.Right);
              ("exh partition", Texttable.Left);
              ("T_exh", Texttable.Right);
              ("cpu_exh(s)", Texttable.Right);
              ("new partition", Texttable.Left);
              ("T_new", Texttable.Right);
              ("cpu_new(s)", Texttable.Right);
              ("dT%", Texttable.Right);
              ("paper dT%", Texttable.Right);
            ]
      in
      List.iter
        (fun tams ->
          List.iter
            (fun w ->
              let exh = exhaustive_cell ctx ~soc:"d695" ~tams ~w in
              let nw = new_fixed_cell ctx ~soc:"d695" ~tams ~w in
              let paper_delta =
                match
                  ( paper_fixed_time ~soc:"d695" ~tams ~method_:`Exhaustive ~w,
                    paper_fixed_time ~soc:"d695" ~tams ~method_:`New ~w )
                with
                | Some e, Some n -> pct_string (delta_pct ~reference:e ~value:n)
                | _ -> "-"
              in
              Texttable.add_row t
                [
                  string_of_int tams;
                  string_of_int w;
                  partition_string exh.partition ^ flag exh;
                  string_of_int exh.time;
                  cpu_string exh.cpu;
                  partition_string nw.partition;
                  string_of_int nw.time;
                  cpu_string nw.cpu;
                  pct_string (delta_pct ~reference:exh.time ~value:nw.time);
                  paper_delta;
                ])
            ctx.widths)
        [ 2; 3 ];
      t
  | "t3" -> npaw_table ctx ~soc:"d695" ~title:(titled "t3")
  | "t4" -> ranges_table ctx ~soc:"p21241" ~title:(titled "t4")
  | "t5_6" -> fixed_table ctx ~soc:"p21241" ~tams:2 ~title:(titled "t5_6")
  | "t7" -> npaw_table ctx ~soc:"p21241" ~title:(titled "t7")
  | "t8" -> ranges_table ctx ~soc:"p31108" ~title:(titled "t8")
  | "t9_10" -> fixed_table ctx ~soc:"p31108" ~tams:2 ~title:(titled "t9_10")
  | "t11_12" -> fixed_table ctx ~soc:"p31108" ~tams:3 ~title:(titled "t11_12")
  | "t13" -> npaw_table ctx ~soc:"p31108" ~title:(titled "t13")
  | "t14" -> ranges_table ctx ~soc:"p93791" ~title:(titled "t14")
  | "t15_16" -> fixed_table ctx ~soc:"p93791" ~tams:2 ~title:(titled "t15_16")
  | "t17_18" -> fixed_table ctx ~soc:"p93791" ~tams:3 ~title:(titled "t17_18")
  | "t19" -> npaw_table ctx ~soc:"p93791" ~title:(titled "t19")
  | "ab_tau" -> ablation_tau ctx ~title:(titled "ab_tau")
  | "ab_enum" -> ablation_enumeration ~title:(titled "ab_enum")
  | "ab_ties" -> ablation_tie_breaks ctx ~title:(titled "ab_ties")
  | "ab_final" -> ablation_final_step ctx ~title:(titled "ab_final")
  | "ab_tams" -> ablation_max_tams ctx ~title:(titled "ab_tams")
  | _ -> raise Not_found
