#!/usr/bin/env bash
# CLI smoke checks: pinned output lines, byte-identity across --jobs values,
# CSV/JSON shape and the modules each command imports.  Needs `python` on
# PATH and PYTHONPATH pointing at the package's src directory; writes its
# output files into the current directory.  Exits non-zero at the first
# failing check.
set -e
# same_bytes FIRST_JOBS JOBS OUT1 OUT2 ARGS...: the CLI with ARGS into OUT1,
# with --jobs FIRST_JOBS appended unless that is empty, and with --jobs JOBS
# appended into OUT2.  The two outputs must have the same bytes.
same_bytes() {
    local first=$1 jobs=$2 out1=$3 out2=$4
    shift 4
    python -m smoothwords.cli "$@" ${first:+--jobs "$first"} > "$out1"
    python -m smoothwords.cli "$@" --jobs "$jobs" > "$out2"
    cmp "$out1" "$out2"
}
# exits STATUS CMD...: CMD must exit with STATUS.  Redirections written
# after the call apply to CMD.
exits() {
    local want=$1 status=0
    shift
    "$@" || status=$?
    test "$status" -eq "$want"
}
same_bytes "" 2 gamma1.txt gamma2.txt gamma --alphabet 1,2 -n 2 -L 12
grep -qx 'gamma=22 stable=true' gamma1.txt
# Without -L the bound is 60 for squares and 30 for any other exponent.
python -m smoothwords.cli scan-powers --alphabet 3,4 -n 3 > scan_default.txt
grep -qx 'alphabet 3,4  exponent 3  bound 30' scan_default.txt
# --jobs > 1 hands the workers only the prefixes that start with a.
same_bytes "" 2 scan1.csv scan2.csv scan-powers --alphabet 1,3 -n 4 -L 14 --format csv
# gamma -n 1 runs the census scan, in which every smooth base is a witness.
same_bytes "" 2 gamma_n1.txt gamma_n1_2.txt gamma --alphabet 1,2 -n 1 -L 10
grep -qx 'gamma=206 stable=false' gamma_n1.txt
# Census reports are written as they render (JSON one witness dict at a
# time, CSV a batch of lines at a time), whichever process found each base.
same_bytes 1 3 gamma16_1.json gamma16_3.json gamma --alphabet 1,2 -n 1 -L 16 --format json
same_bytes 1 3 gamma16_1.csv gamma16_3.csv gamma --alphabet 1,2 -n 1 -L 16 --format csv
# --jobs 3 deals the prefixes round-robin into three shares, one run
# by the calling process and two by forked children: same bytes.
same_bytes 1 3 scan13_1.json scan13_3.json scan-powers --alphabet 1,3 -n 2 -L 40 --format json
# gamma_{2,3}(3) is 24 for every L >= 25, and the junction check in the
# walk must not lose a cube base.
python -m smoothwords.cli gamma --alphabet 2,3 -n 3 -L 60 > gamma23_3.txt
grep -q '^gamma=24 ' gamma23_3.txt
# A --jobs child sends its bases back as pickled Words; over {2,5} the
# junction check rejects most bases before any copy is pushed: same bytes.
same_bytes 1 3 scan25_1.csv scan25_3.csv scan-powers --alphabet 2,5 -n 4 -L 60 --format csv
# Over {3,4} the towers at the split depth are deep, and forked children
# continue them on the tables of upper states they inherited: same bytes.
same_bytes 1 3 scan34_1.txt scan34_3.txt scan-powers --alphabet 3,4 -n 3 -L 150
# In development mode, with every warning an error, a forked scan writes
# the same bytes and nothing on stderr, up to the parent's exit hook.
python -X dev -W error -m smoothwords.cli scan-powers --alphabet 1,3 -n 2 -L 40 --format json --jobs 3 > scan13_dev.json 2> scan13_dev.err
cmp scan13_1.json scan13_dev.json
test ! -s scan13_dev.err
# On a mask of one CPU, --jobs 3 runs every share in the calling process:
# same bytes.
python -c "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); from smoothwords.cli import main; sys.exit(main(['scan-powers', '--alphabet', '1,3', '-n', '2', '-L', '40', '--format', 'json', '--jobs', '3']))" > scan13_one_cpu.json
cmp scan13_1.json scan13_one_cpu.json
# Forking for --jobs imports no process pool, and the caller gets back the
# CPU mask it had before the workers were placed.  Each in-process check
# sends the commands' output to /dev/null, so only a failing assert reaches
# the log.
python -c "import os, sys; from smoothwords.cli import main; mask = os.sched_getaffinity(0); assert main(['gamma', '--alphabet', '1,3', '-n', '2', '-L', '30', '--jobs', '2']) == 0; assert os.sched_getaffinity(0) == mask; assert 'concurrent' not in sys.modules and 'multiprocessing' not in sys.modules" > /dev/null
same_bytes "" 2 explore.txt explore2.txt certify-concat --alphabet 1,3 -L 5 --explore 3
grep -qx '4349 smooth triples tested, 0 violations' explore.txt
# --explore walks its x words with the engine and never loads the census.
python -c "import sys; from smoothwords.cli import main; assert main(['certify-concat', '--alphabet', '1,3', '-L', '5', '--explore', '3']) == 0; assert 'smoothwords.census' not in sys.modules" > /dev/null
# --explore 0 scans x = ε alone; the count is the oracle's
# (bench/oracle.concat_census((1, 2), 8, [()])).
python -m smoothwords.cli certify-concat --alphabet 1,2 -L 8 --explore 0 > explore0.txt
grep -qx '3363 smooth triples tested, 0 violations' explore0.txt
grep -qx 'middle set: eps 1 2 11' explore0.txt
# certify-concat exits 1 on violations: the {1,3} table lacks the middles
# 133 and 331.  A u·x that ends in 3 shares the walk over v of its
# complement and reports the complement of that walk's v; --jobs must
# not change one byte of that.
exits 1 python -m smoothwords.cli certify-concat --alphabet 1,3 -L 6 > concat13.txt
grep -qx '7890 smooth triples tested, 100 violations' concat13.txt
exits 1 python -m smoothwords.cli certify-concat --alphabet 1,3 -L 6 --jobs 2 > concat13_2.txt
cmp concat13.txt concat13_2.txt
# The JSON lists every violation's v, the complemented ones included.
exits 1 python -m smoothwords.cli certify-concat --alphabet 1,3 -L 6 --format json --jobs 1 > concat13.json
exits 1 python -m smoothwords.cli certify-concat --alphabet 1,3 -L 6 --format json --jobs 2 > concat13_2.json
cmp concat13.json concat13_2.json
# Each scan extracts a middle once per (class of u·x, v root), and a
# forked share starts with the middles its parent held at the fork: the
# failing rows of {1,3} must not change one byte at --jobs 3.
exits 1 python -m smoothwords.cli certify-concat --alphabet 1,3 -L 10 --jobs 1 > concat13_10.txt
grep -qx '42367 smooth triples tested, 600 violations' concat13_10.txt
exits 1 python -m smoothwords.cli certify-concat --alphabet 1,3 -L 10 --jobs 3 > concat13_10_3.txt
grep -qx '42367 smooth triples tested, 600 violations' concat13_10_3.txt
cmp concat13_10.txt concat13_10_3.txt
# The walk over v runs once per tower of u·x; over {1,2} towers are
# shared only because they keep a "more than one run" flag.
same_bytes "" 2 concat12.txt concat12_2.txt certify-concat --alphabet 1,2 -L 10
grep -qx '54470 smooth triples tested, 0 violations' concat12.txt
# So does a forked certification.
python -X dev -W error -m smoothwords.cli certify-concat --alphabet 1,2 -L 10 --jobs 2 > concat12_dev.txt 2> concat12_dev.err
cmp concat12.txt concat12_dev.txt
test ! -s concat12_dev.err
# A group of pairs is judged once per junction signature of v (first
# letter, first run length, one run or more); over {2,5} first runs
# reach length 5.
same_bytes 1 2 concat25.txt concat25_2.txt certify-concat --alphabet 2,5 -L 12
grep -qx '30254 smooth triples tested, 0 violations' concat25.txt
# Over {2,9} first runs reach 9 letters: a group judges each one-run v
# c^k and each root c^k c̄, then walks that root's subtree.  Exit 0.
same_bytes 1 3 concat29.txt concat29_3.txt certify-concat --alphabet 2,9 -L 16
# x is pushed once per tower of u, and each tower stands for all its u:
# over {3,4} at L=20 a tower holds 4.3 u on average, and the count is the
# oracle's (bench/reference.json).
same_bytes "" 3 concat34.txt concat34_3.txt certify-concat --alphabet 3,4 -L 20
grep -qx '98477 smooth triples tested, 0 violations' concat34.txt
# One scan serves every x: pairs (u, x) of different x share towers
# of u·x, and a --jobs task is one such tower group.
same_bytes "" 2 shared.txt shared2.txt certify-concat --alphabet 1,2 -L 8 --explore 6
grep -qx '43369 smooth triples tested, 0 violations' shared.txt
# The walker on this Python: {1,2} has 3702 smooth words of length 60.
python -m smoothwords.cli enumerate --alphabet 1,2 -n 60 > enum60.txt
test "$(wc -l < enum60.txt)" -eq 3702
# Letters above 9 render in comma form ("10,12"), which CSV must quote.
python -m smoothwords.cli scan-powers --alphabet 10,12 -n 2 -L 24 --format csv > scan1012.csv
python -c "import csv; rows = list(csv.reader(open('scan1012.csv'))); assert len(rows) > 1 and all(len(r) == 3 for r in rows), rows"
# Witness text is cut from the base's text, but a one-letter comma-form
# base renders its power and primitive base in full.
same_bytes 1 2 gamma1012.txt gamma1012_2.txt gamma --alphabet 10,12 -n 2 -L 24
grep -qx 'witness: base=10, power=10,10 primitive=10,' gamma1012.txt
# -n 0 lists the empty word, which CSV must keep as one empty field.
python -m smoothwords.cli enumerate --alphabet 1,2 -n 0 --format csv > enum0.csv
python -c "import csv; rows = list(csv.reader(open('enum0.csv'))); assert rows == [['word'], ['']], rows"
# The package resolves its public names lazily (PEP 562).
python -c "from smoothwords import *; import smoothwords; assert set(smoothwords.__all__) <= set(dir(smoothwords))"
# Each command imports only the modules it runs: chain never needs concat.
python -c "import sys; from smoothwords.cli import main; assert main(['chain', '--alphabet', '1,2', '--word', '1211']) == 0; assert 'smoothwords.concat' not in sys.modules" > /dev/null
python -m smoothwords.cli chain --alphabet 1,2 --word 1211 --format json > chain.json
python -c "import json; d = json.load(open('chain.json')); assert d['verdict'] == 'smooth' and d['levels'] == ['1211', '12', ''], d"
# chain names the first level that fails and why: closure rejects a
# run longer than b (run-too-long) before derivative rejects an
# interior run outside {a, b} (interior-run-not-in-alphabet).
python -m smoothwords.cli chain --alphabet 1,2 --word 1112 > chain_fail0.txt
grep -qx 'failure: level 0 (run-too-long)' chain_fail0.txt
python -m smoothwords.cli chain --alphabet 1,2 --word 12121 > chain_fail1.txt
grep -qx 'failure: level 1 (run-too-long)' chain_fail1.txt
python -m smoothwords.cli chain --alphabet 1,3 --word 113133 > chain_interior.txt
grep -qx 'failure: level 1 (interior-run-not-in-alphabet)' chain_interior.txt
# Text chain prints each level as it comes; the 100,000-letter
# Kolakoski prefix has 28 levels, and they equal the JSON ones.
w=$(python -m smoothwords.cli kolakoski --alphabet 1,2 --alpha 2 -n 100000)
python -m smoothwords.cli chain --alphabet 1,2 --word "$w" > chain100k.txt
test "$(wc -l < chain100k.txt)" -eq 29
test "$(tail -n 1 chain100k.txt)" = "verdict: smooth"
python -m smoothwords.cli chain --alphabet 1,2 --word "$w" --format json > chain100k.json
python -c "import json; t = open('chain100k.txt').read().splitlines(); assert [l.split(': ', 1)[1] for l in t[:-1]] == json.load(open('chain100k.json'))['levels']"
# power-decomp derives every level with the literal calculus (README's example).
python -m smoothwords.cli power-decomp --alphabet 1,3 --word 3111313111 -n 4 > decomp.txt
grep -qx 'level 1: witness 1' decomp.txt
grep -qx 'level 2: witness 111' decomp.txt
# A huge exponent fails the copy-by-copy test before u^n is built: one line, exit 2.
exits 2 python -m smoothwords.cli power-decomp --alphabet 1,3 --word 13 -n 100000000000000000000 > decomp_huge.txt 2> decomp_huge.err
test ! -s decomp_huge.txt
test "$(wc -l < decomp_huge.err)" -eq 1
grep -qx 'error: (13)^100000000000000000000 must be smooth over 1,3' decomp_huge.err
# A letter outside the alphabet: lift and kolakoski exit 2 with one error
# line and no stdout; chain reports it as the failure of level 0.
exits 2 python -m smoothwords.cli lift --alphabet 1,2 --word 12 --alpha 3 > lift_bad.txt 2> lift_bad.err
test ! -s lift_bad.txt
grep -qx 'error: starting letter 3 is not in alphabet 1,2' lift_bad.err
exits 2 python -m smoothwords.cli kolakoski --alphabet 1,2 --alpha 3 -n 5 > kolakoski_bad.txt 2> kolakoski_bad.err
test ! -s kolakoski_bad.txt
grep -qx 'error: first letter 3 is not in alphabet 1,2' kolakoski_bad.err
python -m smoothwords.cli chain --alphabet 1,2 --word 13 > chain_bad.txt
grep -qx 'failure: level 0 (letter-not-in-alphabet)' chain_bad.txt
# A well-formed command line is read without argparse; other spellings of
# the same flags (an abbreviation, --flag=value) go through argparse and
# give the same bytes.
python -m smoothwords.cli delta --alphabet 1,2 --word 1122 > delta_plain.txt
python -m smoothwords.cli delta --alph 1,2 --word=1122 > delta_argparse.txt
cmp delta_plain.txt delta_argparse.txt
exits 2 python -m smoothwords.cli gamma --alphabet 1,2 > gamma_usage.txt 2> gamma_usage.err
test ! -s gamma_usage.txt
grep -qx 'smoothwords gamma: error: the following arguments are required: -n' gamma_usage.err
python -c "import sys; from smoothwords.cli import main; assert main(['chain', '--alphabet', '1,2', '--word', '1211']) == 0; assert 'argparse' not in sys.modules" > /dev/null
# dsigma prints the stored middle-word table; the {1,3} table lists 3111
# but not 133 or 331, which certify-concat finds (C07 fails on purpose).
python -m smoothwords.cli dsigma --alphabet 1,3 > dsigma13.txt
grep -qx '3111' dsigma13.txt
test "$(grep -cx '133' dsigma13.txt)" -eq 0
python -m smoothwords.cli dsigma --alphabet 1,3 --format json > dsigma13.json
python -c "import json; d = json.load(open('dsigma13.json')); assert d['alphabet'] == [1, 3] and d['words'] == open('dsigma13.txt').read().splitlines(), d"
# The middle-word fixpoint, complete at every length, is that table plus
# 133 and 331.
python -c "from smoothwords import Alphabet, Word, dsigma_table, empirical_middle_set; ab = Alphabet(1, 3); assert empirical_middle_set(ab) == set(dsigma_table(ab).words) | {Word('133'), Word('331')}"
# lift, kolakoski and dsigma compile neither the scans nor the certifier
# nor the engine.
python -c "import sys; from smoothwords.cli import main; assert main(['lift', '--alphabet', '2,4', '--word', '22', '--alpha', '2', '-k', '1']) == 0; assert main(['kolakoski', '--alphabet', '1,2', '--alpha', '1', '-n', '19']) == 0; assert main(['dsigma', '--alphabet', '1,3']) == 0; loaded = {'smoothwords.census', 'smoothwords.concat', 'smoothwords.search'} & set(sys.modules); assert not loaded, loaded" > /dev/null
# A zero letter in comma form is reported at the zero, past the part's
# leading blanks.
exits 2 python -m smoothwords.cli delta --alphabet 1,2 --word '1, 0' > zero_letter.txt 2> zero_letter.err
test ! -s zero_letter.txt
test "$(cat zero_letter.err)" = "error: zero letter in '1, 0' at position 3"
test "$(wc -l < zero_letter.err)" -eq 1
