"""Golden report output of the CLI, driven through ``cli.main``.

Pins the exact text of every report command on small seeded inputs:
the CSVs of ``bench``, ``sweep-k``, ``profile`` and ``grid``, the metadata
sidecars, the ``bench`` summary lines and the ``validate`` lines. Wall-clock
values are the only thing masked (as ``*``); every other byte, the CSV
headers and the ``\\r\\n`` line ends included, must stay as recorded.
"""

import re

import pytest

from stratmst import WeightDist, gen_random, write_edge_list
from stratmst.cli import main

_TIME = re.compile(r"=\s*\d+\.\d+ms")
_SPEEDUP = re.compile(r"(speedup-[\w-]+=)\s*\d+\.\d+x")


def _mask_column(text, column):
    """Replace one named CSV column by ``*`` on every data row."""
    lines = text.split("\r\n")
    index = lines[0].split(",").index(column)
    masked = [lines[0]]
    for line in lines[1:]:
        if line:
            cells = line.split(",")
            cells[index] = "*"
            line = ",".join(cells)
        masked.append(line)
    return "\r\n".join(masked)


def _mask_summary(text):
    """Mask the times and speedups of the ``bench`` summary lines."""
    return _SPEEDUP.sub(r"\1*x", _TIME.sub("=*ms", text))


def _crlf(text):
    return text.replace("\n", "\r\n")


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    with open(path, "w", encoding="utf-8") as stream:
        write_edge_list(gen_random(120, 600, WeightDist.uniform(), 5), stream)
    return str(path)


def _run(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_bench_csv_and_summary(capsys):
    out, err = _run(capsys, ["bench", "--trials", "1"])
    assert _mask_column(out, "time_ns") == _crlf(BENCH_CSV)
    assert _mask_summary(err) == BENCH_SUMMARY


def test_sweep_k_csv(graph_file, capsys):
    out, err = _run(capsys, ["sweep-k", "--input", graph_file, "--k-values", "1,3,8,40",
                             "--trials", "2", "--seed", "11"])
    assert _mask_column(out, "time_ns") == _crlf(SWEEP_CSV)
    assert err == ""


def test_profile_csv_and_sidecar(graph_file, capsys):
    out, err = _run(capsys, ["profile", "--input", graph_file, "--k", "6", "--seed", "4"])
    assert out == _crlf(PROFILE_CSV)
    assert err.replace(graph_file, "GRAPH") == PROFILE_SIDECAR


def test_grid_csv_and_sidecar(capsys):
    out, err = _run(capsys, ["grid", "--n", "40", "--density", "0.01,0.1,0.5",
                             "--skew", "0,0.5,1", "--trials", "2", "--seed", "3"])
    assert out == _crlf(GRID_CSV)
    assert err == GRID_SIDECAR


def test_validate_lines(capsys):
    out, err = _run(capsys, ["validate"])
    assert out == VALIDATE
    assert err == ""


# Outputs recorded with the CLI's defaults for every flag not given above.

BENCH_CSV = """\
graph,family,n,m,algo,trial,seed,time_ns,sort_ops,strata_processed,strata_total,mst_weight,mst_edges
sparse-uniform,sparse,500,600,std,0,1513265331676537594,*,600,1,1,220285.18087743552,499
sparse-uniform,sparse,500,600,eds,0,1513265331676537594,*,600,10,10,220285.18087743552,499
sparse-uniform,sparse,500,600,heap,0,1513265331676537594,*,600,1,1,220285.18087743552,499
sparse-normal,sparse,500,600,std,0,6760841623144490934,*,600,1,1,241889.86858190066,499
sparse-normal,sparse,500,600,eds,0,6760841623144490934,*,600,10,10,241889.86858190066,499
sparse-normal,sparse,500,600,heap,0,6760841623144490934,*,598,1,1,241889.86858190066,499
sparse-power,sparse,500,600,std,0,12880772245939331152,*,600,1,1,1019.4177793400959,499
sparse-power,sparse,500,600,eds,0,12880772245939331152,*,600,10,10,1019.4177793400959,499
sparse-power,sparse,500,600,heap,0,12880772245939331152,*,595,1,1,1019.4177793400959,499
sparse-clustered,sparse,500,600,std,0,15424815432133027019,*,600,1,1,235011.25443736685,499
sparse-clustered,sparse,500,600,eds,0,15424815432133027019,*,600,10,10,235011.25443736685,499
sparse-clustered,sparse,500,600,heap,0,15424815432133027019,*,594,1,1,235011.25443736685,499
medium-uniform,medium,500,5000,std,0,5541900984994863886,*,5000,1,1,29280.251899160812,499
medium-uniform,medium,500,5000,eds,0,5541900984994863886,*,1821,9,25,29280.251899160812,499
medium-uniform,medium,500,5000,heap,0,5541900984994863886,*,1759,1,1,29280.251899160812,499
medium-normal,medium,500,5000,std,0,11873839905452574380,*,5000,1,1,163248.82340645872,499
medium-normal,medium,500,5000,eds,0,11873839905452574380,*,2035,10,25,163248.82340645872,499
medium-normal,medium,500,5000,heap,0,11873839905452574380,*,1951,1,1,163248.82340645872,499
dense,dense,300,40000,std,0,1439226628098369508,*,40000,1,1,1343.6075782971282,299
dense,dense,300,40000,eds,0,1439226628098369508,*,903,1,62,1343.6075782971282,299
dense,dense,300,40000,heap,0,1439226628098369508,*,755,1,1,1343.6075782971282,299
grid-20x20,grid,400,760,std,0,5812113872557743202,*,760,1,1,116895.4441213845,399
grid-20x20,grid,400,760,eds,0,5812113872557743202,*,669,9,11,116895.4441213845,399
grid-20x20,grid,400,760,heap,0,5812113872557743202,*,650,1,1,116895.4441213845,399
grid-30x30,grid,900,1740,std,0,15175125467375971320,*,1740,1,1,247480.55078452243,899
grid-30x30,grid,900,1740,eds,0,15175125467375971320,*,1477,14,16,247480.55078452243,899
grid-30x30,grid,900,1740,heap,0,15175125467375971320,*,1402,1,1,247480.55078452243,899
path-2000,path,2000,1999,std,0,11053972005059741659,*,1999,1,1,993114.3886756741,1999
path-2000,path,2000,1999,eds,0,11053972005059741659,*,1999,17,17,993114.3886756741,1999
path-2000,path,2000,1999,heap,0,11053972005059741659,*,1999,1,1,993114.3886756741,1999
sparse-2000,sparse,2000,2500,std,0,5958074853735440330,*,2500,1,1,853256.195515118,1999
sparse-2000,sparse,2000,2500,eds,0,5958074853735440330,*,2500,18,18,853256.195515118,1999
sparse-2000,sparse,2000,2500,heap,0,5958074853735440330,*,2500,1,1,853256.195515118,1999
sparse-5000,sparse,5000,6000,std,0,8716753383809696530,*,6000,1,1,2160926.4367053155,4999
sparse-5000,sparse,5000,6000,eds,0,8716753383809696530,*,6000,27,27,2160926.4367053155,4999
sparse-5000,sparse,5000,6000,heap,0,8716753383809696530,*,6000,1,1,2160926.4367053155,4999
medium-1000,medium,1000,10000,std,0,1944466771892584058,*,10000,1,1,60155.95581159328,999
medium-1000,medium,1000,10000,eds,0,1944466771892584058,*,4023,15,33,60155.95581159328,999
medium-1000,medium,1000,10000,heap,0,1944466771892584058,*,3996,1,1,60155.95581159328,999
power-1000,power,1000,5000,std,0,8123495256994279387,*,5000,1,1,1094.5459849193765,999
power-1000,power,1000,5000,eds,0,8123495256994279387,*,3829,19,25,1094.5459849193765,999
power-1000,power,1000,5000,heap,0,8123495256994279387,*,3505,1,1,1094.5459849193765,999
"""

BENCH_SUMMARY = """\
sparse-uniform    n=500   m=600    std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.00x strata=10/10
sparse-normal     n=500   m=600    std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.00x strata=10/10
sparse-power      n=500   m=600    std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.00x strata=10/10
sparse-clustered  n=500   m=600    std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.00x strata=10/10
medium-uniform    n=500   m=5000   std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 2.75x strata=9/25
medium-normal     n=500   m=5000   std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 2.46x strata=10/25
dense             n=300   m=40000  std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio=44.30x strata=1/62
grid-20x20        n=400   m=760    std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.14x strata=9/11
grid-30x30        n=900   m=1740   std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.18x strata=14/16
path-2000         n=2000  m=1999   std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.00x strata=17/17
sparse-2000       n=2000  m=2500   std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.00x strata=18/18
sparse-5000       n=5000  m=6000   std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.00x strata=27/27
medium-1000       n=1000  m=10000  std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 2.49x strata=15/33
power-1000        n=1000  m=5000   std=*ms eds=*ms heap=*ms speedup-eds=*x speedup-heap=*x ops-ratio= 1.31x strata=19/25
"""

SWEEP_CSV = """\
k,time_ns,sort_ops,strata_processed,strata_total
1,*,600.0,1.0,1.0
3,*,334.0,1.5,3.0
8,*,360.0,4.0,8.0
40,*,265.5,17.0,40.0
"""

PROFILE_CSV = """\
stratum,fraction
0,0.8403361344537815
1,0.13445378151260504
2,0.025210084033613446
3,0.0
4,0.0
5,0.0
"""

PROFILE_SIDECAR = """\
{
  "input": "GRAPH",
  "k": 6,
  "seed": 4,
  "fractions": "accepted spanning-forest edges per stratum / total accepted"
}
"""

GRID_CSV = """\
density,skew,m,ops_ratio
0.01,0.0,8,
0.01,0.5,8,
0.01,1.0,8,
0.1,0.0,78,1.0
0.1,0.5,78,1.0
0.1,1.0,78,1.0
0.5,0.0,390,5.895154373927959
0.5,0.5,390,4.016704242672679
0.5,1.0,390,4.30797707188918
"""

GRID_SIDECAR = """\
{
  "n": 40,
  "trials": 2,
  "master_seed": 3,
  "density_points": [
    0.01,
    0.1,
    0.5
  ],
  "skew_points": [
    0.0,
    0.5,
    1.0
  ],
  "seed_derivation": "first 8 bytes of sha256('master:grid:density:skew:trial')",
  "skew_to_alpha": "skew=0 -> uniform(0,1000); skew>0 -> Pareto(alpha=1/(0.1+2*skew), scale=1)",
  "ops_ratio": "median over trials of m / eds sort_ops; empty cell means m < n-1"
}
"""

VALIDATE = """\
PASS clrs-textbook std 37.0000
PASS clrs-textbook eds 37.0000
PASS clrs-textbook heap 37.0000
PASS triangle std 3.0000
PASS triangle eds 3.0000
PASS triangle heap 3.0000
PASS disconnected-forest std 8.0000
PASS disconnected-forest eds 8.0000
PASS disconnected-forest heap 8.0000
PASS single-vertex std 0.0000
PASS single-vertex eds 0.0000
PASS single-vertex heap 0.0000
PASS duplicate-edges std 2.0000
PASS duplicate-edges eds 2.0000
PASS duplicate-edges heap 2.0000
PASS negative-weights std -8.0000
PASS negative-weights eds -8.0000
PASS negative-weights heap -8.0000
PASS path-10 std 4833.5739
PASS path-10 eds 4833.5739
PASS path-10 heap 4833.5739
PASS grid-4x4 std 3704.9738
PASS grid-4x4 eds 3704.9738
PASS grid-4x4 heap 3704.9738
PASS sparse-50 std 13997.8023
PASS sparse-50 eds 13997.8023
PASS sparse-50 heap 13997.8023
PASS dense-50 std 1379.0524
PASS dense-50 eds 1379.0524
PASS dense-50 heap 1379.0524
PASS random-200 std 62454.9320
PASS random-200 eds 62454.9320
PASS random-200 heap 62454.9320
PASS equal-weights std 4.0000
PASS equal-weights eds 4.0000
PASS equal-weights heap 4.0000
"""
