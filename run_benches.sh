#!/bin/bash
# Regenerates every figure/table of the paper plus the extension benches.
# BENCH_THREADS=N reruns the figure sweeps with N worker threads (default 1,
# the paper's serial setup; groups are identical at every thread count — see
# util/thread_pool.hpp and the Differential ctest suite).
set -u
cd /root/repo
out=/root/repo/bench_output.txt
threads="${BENCH_THREADS:-1}"
: > "$out"
for b in bench_fig2_users_sweep bench_fig3_roles_sweep bench_similar_sweep \
         bench_real_org; do
  echo "############ $b (threads=$threads) ############" >> "$out"
  ./build/bench/$b --threads "$threads" >> "$out" 2>&1
  echo "" >> "$out"
done
for b in bench_convergence bench_ablation; do
  echo "############ $b ############" >> "$out"
  ./build/bench/$b >> "$out" 2>&1
  echo "" >> "$out"
done
# SIMD kernel dispatch: batched verify kernels vs scalar single-pair, per
# dispatch target the host supports. BENCH_kernels.json is the first JSON
# artifact CI archives per commit; its "capability" field says which ISAs
# this run could actually exercise.
echo "############ bench_kernels ############" >> "$out"
./build/bench/bench_kernels --out /root/repo/BENCH_kernels.json >> "$out" 2>&1
echo "" >> "$out"
# Sharded-engine scale sweep (Fig. 2 workload at 1M-10M users, shuffled vs
# id-local role orderings, per-shard work counters): BENCH_shard.json is the
# second JSON artifact CI archives per commit. --quick keeps it to the sweep
# endpoints; drop it for the full 1M/2M/5M/10M x {1,2,4,8}-shard ladder.
echo "############ bench_shard (threads=$threads) ############" >> "$out"
./build/bench/bench_shard --quick --threads "$threads" --out /root/repo/BENCH_shard.json \
  >> "$out" 2>&1
echo "" >> "$out"
# Role mining vs the duplicate-merge baseline on org / Fig. 3-scale / churn /
# planted workloads: BENCH_mining.json is the third JSON artifact CI
# archives per commit. The bench exits non-zero unless every plan verifies,
# mining beats the baseline, and planted recovery stays within its bound.
# --quick trims the Fig. 3 ladder and the churn/planted scale.
echo "############ bench_mining (threads=$threads) ############" >> "$out"
./build/bench/bench_mining --quick --threads "$threads" --out /root/repo/BENCH_mining.json \
  >> "$out" 2>&1
echo "" >> "$out"
echo "ALL BENCHES DONE" >> "$out"
