# CTest smoke script: run swft_sim end-to-end in CSV mode on a small faulty
# torus and check the exit code and output shape.
#
#   cmake -DSWFT_SIM=<path-to-binary> -P smoke_swft_sim.cmake
if(NOT SWFT_SIM)
  message(FATAL_ERROR "pass -DSWFT_SIM=<path to swft_sim>")
endif()

execute_process(
  COMMAND ${SWFT_SIM} --csv k=4 n=2 vcs=4 msg_length=8 rate=0.004
          routing=adaptive nf=2 warmup=50 measured=300 max_cycles=200000 seed=7
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "swft_sim exited with ${rc}\nstderr: ${err}")
endif()

string(REGEX REPLACE "\n$" "" out "${out}")
string(REPLACE "\n" ";" lines "${out}")
list(LENGTH lines nlines)
if(NOT nlines EQUAL 2)
  message(FATAL_ERROR "expected CSV header + 1 data row, got ${nlines} line(s):\n${out}")
endif()

list(GET lines 0 header)
list(GET lines 1 row)
if(NOT header MATCHES "^label,routing,radix,dims,vcs")
  message(FATAL_ERROR "unexpected CSV header: ${header}")
endif()
if(NOT header MATCHES ",deadlock$")
  message(FATAL_ERROR "CSV header missing trailing deadlock column: ${header}")
endif()

string(REGEX MATCHALL "," headerCommas "${header}")
string(REGEX MATCHALL "," rowCommas "${row}")
list(LENGTH headerCommas nHeader)
list(LENGTH rowCommas nRow)
if(NOT nHeader EQUAL nRow)
  message(FATAL_ERROR "row has ${nRow} commas but header has ${nHeader}:\n${out}")
endif()

# Exit code 0 already implies no deadlock; cross-check the CSV field agrees.
if(NOT row MATCHES ",0$")
  message(FATAL_ERROR "deadlock column should be 0 on a clean run: ${row}")
endif()

# The human report's `config:` line is a command line that reproduces the
# run: fed back to swft_sim --csv, it gives the original arguments' CSV row
# byte for byte. The region lies off the default plane, and the rate needs
# all 17 significant digits to parse back to the same double.
set(roundTripArgs k=4 n=3 vcs=4 msg_length=8 buffer_depth=2
    rate=0.0023333333333333335 routing=adaptive region=rect:2x2@1,1,1/0,2 nf=1
    warmup=50 measured=300 seed=7)
execute_process(
  COMMAND ${SWFT_SIM} ${roundTripArgs}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE report
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "swft_sim ${roundTripArgs} exited with ${rc}\nstderr: ${err}")
endif()
if(NOT report MATCHES "config: ([^\n]*)")
  message(FATAL_ERROR "swft_sim report has no config: line:\n${report}")
endif()
set(configLine "${CMAKE_MATCH_1}")
string(REPLACE " " ";" configArgs "${configLine}")
set(roundTripRows "")
foreach(argsVar roundTripArgs configArgs)
  execute_process(
    COMMAND ${SWFT_SIM} --csv ${${argsVar}}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE csvOut
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "swft_sim --csv ${${argsVar}} exited with ${rc}\nstderr: ${err}")
  endif()
  list(APPEND roundTripRows "${csvOut}")
endforeach()
list(GET roundTripRows 0 originalRow)
list(GET roundTripRows 1 replayedRow)
if(NOT originalRow STREQUAL replayedRow)
  message(FATAL_ERROR "the config: line does not reproduce the run\n"
          "config: ${configLine}\noriginal:\n${originalRow}\nreplayed:\n${replayedRow}")
endif()

# Rejected configurations exit 2 before simulating, naming the bad key on
# stderr. No key selects an engine or its thread count, a router decision
# time Td and a Delta must both stay below the deadlock watchdog window (a
# wait that long moves no flit and reads as a deadlock), and the former
# `pattern=` and `bit-complement` aliases are gone. A rate below 1e-15 has
# geometric gaps that overflow 64 bits. The trailing keys bound the run
# should one be accepted.
foreach(bad engine=dense engine=sparse-mt engine=sparse sim_threads=2 msg_length=0
        td=1073741824 td=20000 delta=20000 pattern=uniform traffic=bit-complement
        rate=1e-300)
  string(REGEX REPLACE "=.*" "" key "${bad}")
  execute_process(
    COMMAND ${SWFT_SIM} ${bad} k=4 warmup=10 measured=50 max_cycles=20000
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "swft_sim ${bad} should exit 2, got ${rc}\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "${key}")
    message(FATAL_ERROR "swft_sim ${bad}: stderr does not name ${key}:\n${err}")
  endif()
endforeach()

# After a bad argument the usage text goes to stderr with the error: a
# script reading --csv output must get no usage lines as data.
execute_process(
  COMMAND ${SWFT_SIM} --csv k=abc
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "swft_sim --csv k=abc should exit 2, got ${rc}\nstderr: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "swft_sim --csv k=abc must print nothing on stdout, got:\n${out}")
endif()
if(NOT err MATCHES "usage: swft_sim")
  message(FATAL_ERROR "swft_sim --csv k=abc: stderr lacks the usage text:\n${err}")
endif()

# A region anchor outside the torus is rejected before any fault is placed
# (an out-of-range out-of-plane digit used to index past the fault set).
execute_process(
  COMMAND ${SWFT_SIM} k=4 n=3 region=U:2x2@1,1,40
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "swft_sim region=U:2x2@1,1,40 should exit 2, got ${rc}\nstderr: ${err}")
endif()
if(NOT err MATCHES "region")
  message(FATAL_ERROR "swft_sim region=U:2x2@1,1,40: stderr does not name region:\n${err}")
endif()

# A fault pattern that cannot be placed is bad input too: 15 random faults
# cannot fit the 12 nodes a 2x2 region leaves healthy on a 4-ary 2-cube. The
# network is never built, so this exits 2, naming the inputs that fixed the
# placement.
execute_process(
  COMMAND ${SWFT_SIM} k=4 n=2 nf=15 region=rect:2x2@0,0
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "swft_sim nf=15 region=rect:2x2@0,0 should exit 2, got ${rc}\nstderr: ${err}")
endif()
foreach(input "nf=15" "4 region faults" "seed=1")
  if(NOT err MATCHES "${input}")
    message(FATAL_ERROR "swft_sim nf=15 region=rect:2x2@0,0: stderr does not name ${input}:\n${err}")
  endif()
endforeach()

# --help prints the parse keys of the one config field list
# (forEachConfigField). It must name every key below, and the parser must
# accept every key it names: an empty value is rejected for the value, not
# as an unknown key.
execute_process(
  COMMAND ${SWFT_SIM} --help
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE help
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "swft_sim --help exited with ${rc}\nstderr: ${err}")
endif()
string(REGEX MATCH "keys:[^\n]*(\n +[^\n]*)*" keysText "${help}")
string(REPLACE "keys:" "" keysText "${keysText}")
string(REGEX MATCHALL "[a-z_]+" helpKeys "${keysText}")
foreach(key k n vcs escape_vcs buffer_depth td msg_length rate traffic
        hotspot_fraction routing delta livelock_threshold nf region warmup
        measured max_cycles seed phase_timers)
  list(FIND helpKeys "${key}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "swft_sim --help does not name the key ${key}:\n${help}")
  endif()
endforeach()
foreach(key IN LISTS helpKeys)
  execute_process(
    COMMAND ${SWFT_SIM} ${key}=
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR err MATCHES "unknown key")
    message(FATAL_ERROR "swft_sim --help names ${key}, but '${key}=' exits ${rc}:\n${err}")
  endif()
endforeach()

message(STATUS "swft_sim smoke OK: ${row}")
