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

# Rejected configurations exit 2 before simulating, naming the bad key on
# stderr. The trailing keys bound the run should one be accepted.
foreach(bad engine=dense msg_length=0)
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

message(STATUS "swft_sim smoke OK: ${row}")
