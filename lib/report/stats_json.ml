module Json = Soctam_util.Json
module Obs = Soctam_obs.Obs

let counters_obj counters =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) counters)

let render (s : Obs.snapshot) =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("elapsed_ns", Json.Int s.Obs.elapsed_ns);
      ("counters", counters_obj s.Obs.counters);
      ( "workers",
        Json.List
          (List.map
             (fun (worker, counters) ->
               Json.Obj
                 [
                   ("worker", Json.Int worker);
                   ("counters", counters_obj counters);
                 ])
             s.Obs.worker_counters) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, h) ->
               ( name,
                 Json.Obj
                   [
                     ("count", Json.Int h.Obs.h_count);
                     ("sum", Json.Int h.Obs.h_sum);
                     ("min", Json.Int h.Obs.h_min);
                     ("max", Json.Int h.Obs.h_max);
                   ] ))
             s.Obs.histograms) );
      ( "spans",
        Json.Obj
          (List.map
             (fun (name, sp) ->
               ( name,
                 Json.Obj
                   [
                     ("count", Json.Int sp.Obs.s_count);
                     ("total_ns", Json.Int sp.Obs.s_total_ns);
                     ("min_ns", Json.Int sp.Obs.s_min_ns);
                     ("max_ns", Json.Int sp.Obs.s_max_ns);
                   ] ))
             s.Obs.spans) );
      ( "events",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("t_ns", Json.Int e.Obs.e_t_ns);
                   ("worker", Json.Int e.Obs.e_worker);
                   ("name", Json.String e.Obs.e_name);
                   ( "value",
                     match e.Obs.e_value with
                     | Some v -> Json.Int v
                     | None -> Json.Null );
                 ])
             s.Obs.events) );
      ("dropped_events", Json.Int s.Obs.dropped_events);
    ]

let render_string s = Json.to_string (render s)

let summary (s : Obs.snapshot) =
  let c name = Obs.counter_value s name in
  let enumerated = c "partition/enumerated" in
  let pruning =
    if enumerated = 0 then ""
    else
      Printf.sprintf " | partitions %d enumerated, %d pruned, %d evaluated"
        enumerated
        (c "partition/pruned")
        (c "partition/evaluated")
  in
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 s.Obs.counters in
  Printf.sprintf
    "stats: %.3fs elapsed%s | %d counters (%d total), %d spans, %d events%s"
    (float_of_int s.Obs.elapsed_ns /. 1e9)
    pruning
    (List.length s.Obs.counters)
    total
    (List.length s.Obs.spans)
    (List.length s.Obs.events)
    (if s.Obs.dropped_events > 0 then
       Printf.sprintf " (%d dropped)" s.Obs.dropped_events
     else "")
