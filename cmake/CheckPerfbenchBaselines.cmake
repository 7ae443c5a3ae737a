# Test script for the host-cost trajectory (bench/baselines/perfbench.jsonl):
# one JSON object per line, one line per change and workload. Fails unless
# every line parses and
#   * `workload` names a workload and `metric` an `end_to_end` metric of
#     BENCHMARK.json (read only);
#   * `pr`, `seed`, `seconds` and `pairs` are numbers, `pairs` >= 1;
#   * `parent` and `change` each hold `q1`, `median` and `q3`, where the
#     median is a number and a quartile is a number or null, and
#     q1 <= median <= q3 wherever both sides of a comparison are numbers;
#   * 0 <= `change_lower` <= `pairs`.
#
#   cmake -DBASELINES=<perfbench.jsonl> -DBENCHMARK=<BENCHMARK.json>
#         -P CheckPerfbenchBaselines.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

function(json_names out doc array)
  string(JSON n LENGTH "${doc}" ${array})
  set(names "")
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${doc}" ${array} ${i} name)
    list(APPEND names "${name}")
  endforeach()
  set(${out} "${names}" PARENT_SCOPE)
endfunction()

# Sets `out` to the JSON type of ${line} at the path ARGN and json_err to
# the parse or lookup error, or to "" if there is none.
macro(json_type out)
  string(JSON ${out} ERROR_VARIABLE json_err TYPE "${line}" ${ARGN})
  if(NOT json_err)
    set(json_err "")
  endif()
endmacro()

file(READ "${BENCHMARK}" bench)
json_names(workloads "${bench}" workloads)
json_names(metrics "${bench}" end_to_end)

file(STRINGS "${BASELINES}" lines)
list(LENGTH lines nlines)
if(nlines EQUAL 0)
  message(FATAL_ERROR "${BASELINES}: no lines")
endif()

set(lineno 0)
foreach(line IN LISTS lines)
  math(EXPR lineno "${lineno} + 1")
  set(where "${BASELINES}:${lineno}")
  json_type(type)
  if(NOT type STREQUAL "OBJECT")
    message(FATAL_ERROR "${where}: not a JSON object ${json_err}")
  endif()
  foreach(key pr seed seconds pairs change_lower)
    json_type(type ${key})
    if(NOT type STREQUAL "NUMBER")
      message(FATAL_ERROR "${where}: `${key}` is not a number ${json_err}")
    endif()
  endforeach()
  string(JSON workload ERROR_VARIABLE json_err GET "${line}" workload)
  if(NOT workload IN_LIST workloads)
    message(FATAL_ERROR "${where}: `${workload}` is not a workload of "
                        "${BENCHMARK} (${workloads})")
  endif()
  string(JSON metric ERROR_VARIABLE json_err GET "${line}" metric)
  if(NOT metric IN_LIST metrics)
    message(FATAL_ERROR "${where}: `${metric}` is not an end_to_end metric "
                        "of ${BENCHMARK}")
  endif()
  string(JSON pairs GET "${line}" pairs)
  string(JSON lower GET "${line}" change_lower)
  if(pairs LESS 1 OR lower LESS 0 OR lower GREATER pairs)
    message(FATAL_ERROR "${where}: need 0 <= change_lower (${lower}) <= "
                        "pairs (${pairs}) and pairs >= 1")
  endif()
  foreach(side parent change)
    foreach(q q1 median q3)
      json_type(type ${side} ${q})
      if(type STREQUAL "NUMBER")
        string(JSON ${q} GET "${line}" ${side} ${q})
      elseif(type STREQUAL "NULL" AND NOT q STREQUAL "median")
        set(${q} "")
      elseif(q STREQUAL "median")
        message(FATAL_ERROR "${where}: `${side}.median` is not a number "
                            "${json_err}")
      else()
        message(FATAL_ERROR "${where}: `${side}.${q}` is neither a number "
                            "nor null ${json_err}")
      endif()
    endforeach()
    if((NOT q1 STREQUAL "" AND q1 GREATER median) OR
       (NOT q3 STREQUAL "" AND q3 LESS median))
      message(FATAL_ERROR "${where}: `${side}` needs q1 <= median <= q3")
    endif()
  endforeach()
endforeach()
message(STATUS "${BASELINES}: ${nlines} lines well formed")
