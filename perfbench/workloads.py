"""The four benchmark workloads.

Each workload is a class with the same shape:

* ``__init__(seed, workdir)`` — inputs come from the seed only;
* ``setup()`` — the work a user pays once before measuring (timed);
* ``iteration(index)`` — one unit of measured work, returning its
  outputs;
* ``summary(outputs)`` — the few numbers kept from every iteration,
  among them ``work``: how many of the workload's work units it did
  (records, campaigns or simulated flow-seconds);
* ``fingerprint(outputs)`` — a digest of the first iteration's outputs,
  compared with the reference recorded for the same seed;
* ``check(outputs)`` — a list of failed output checks (empty = correct);
* ``headline(summaries)`` — the workload's own end-to-end numbers;
* ``close()`` — stops and removes what ``setup`` started (called
  between repeated set-ups, untimed).

Which layers each workload loads and bypasses is written in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np


def _sha256_arrays(hasher, arrays: dict[str, np.ndarray]) -> None:
    for name in sorted(arrays):
        column = np.ascontiguousarray(arrays[name])
        hasher.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
        hasher.update(column.tobytes())


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


# -- campaign ------------------------------------------------------------

TABLE1_CITIES = ("london", "seattle", "sydney")
TABLE3_CITIES = ("london", "seattle", "toronto", "warsaw")


class CampaignWorkload:
    """The serial six-month reference campaign plus exact Table 1/3."""

    name = "campaign"
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.extension.campaign import CampaignConfig

        self.seed = seed
        self.config = CampaignConfig(seed=seed, n_workers=1, storage="memory")
        self.campaign = None

    def _build(self):
        from repro.extension.campaign import ExtensionCampaign

        return ExtensionCampaign(self.config)

    def setup(self) -> None:
        self.campaign = self._build()

    def iteration(self, index: int) -> dict:
        campaign = self.campaign if index == 0 else self._build()
        started = time.perf_counter()
        dataset = campaign.run()
        run_s = time.perf_counter() - started
        cells = exact_table_cells(dataset)
        return {
            "dataset": dataset,
            "campaign": campaign,
            "cells": cells,
            "run_s": run_s,
            "records": dataset.n_page_loads + dataset.n_speedtests,
        }

    def fingerprint(self, outputs: dict) -> str:
        from repro.extension import columnar

        dataset = outputs["dataset"]
        hasher = hashlib.sha256()
        for names, column in (
            (columnar.PAGE_LOAD_COLUMNS, dataset.page_load_column),
            (columnar.SPEEDTEST_COLUMNS, dataset.speedtest_column),
        ):
            _sha256_arrays(hasher, {name: column(name) for name in names})
        hasher.update(json.dumps(outputs["cells"], sort_keys=True).encode())
        return hasher.hexdigest()

    def check(self, outputs: dict) -> list[str]:
        dataset = outputs["dataset"]
        stats = outputs["campaign"].last_run_stats
        errors = []
        if stats.n_records != outputs["records"]:
            errors.append(
                f"run stats report {stats.n_records} records, dataset holds "
                f"{outputs['records']}"
            )
        table1 = outputs["cells"]["table1"]
        for key, cell in table1.items():
            city, starlink = key.split("/")
            selected = [
                r
                for r in dataset.page_loads
                if r.city == city and r.is_starlink == (starlink == "starlink")
            ]
            if cell["n"] != len(selected):
                errors.append(f"table1 {key}: #req {cell['n']} != {len(selected)}")
            if cell["n"] and cell["domains"] != len({r.domain for r in selected}):
                errors.append(f"table1 {key}: #domain mismatch")
            if cell["n"] and cell["median_ptt_ms"] != float(
                np.median([r.ptt_ms for r in selected])
            ):
                errors.append(f"table1 {key}: median PTT differs from numpy")
        if not any(cell["n"] for cell in table1.values()):
            errors.append("table1 has no requests at all")
        return errors

    def summary(self, outputs: dict) -> dict:
        records = outputs["records"]
        return {"records": records, "run_s": outputs["run_s"], "work": records}

    def headline(self, summaries: list[dict]) -> dict:
        return {
            "records_per_s": {
                "value": _median([s["records"] / s["run_s"] for s in summaries]),
                "unit": "1/s",
            },
            "records": {"value": summaries[0]["records"], "unit": "count"},
        }

    def cross_checks(self, outputs: dict, counters: dict, per_layer: dict) -> list[str]:
        caches = outputs["campaign"].geometry_caches()
        return _equal(
            per_layer,
            {
                "starlink.geometry_scans": (
                    "ServingGeometryCache.misses",
                    sum(cache.misses for cache in caches),
                ),
                "web.page_loads": (
                    "Dataset.n_page_loads",
                    outputs["dataset"].n_page_loads,
                ),
            },
        )

    def close(self) -> None:
        self.campaign = None


def exact_table_cells(dataset) -> dict:
    """The exact Table 1 and Table 3 cells, as the experiments compute
    them on an exact-analytics dataset."""
    from repro.errors import DatasetError

    table1 = {}
    for city in TABLE1_CITIES:
        for starlink in (True, False):
            key = f"{city}/{'starlink' if starlink else 'other'}"
            n = dataset.request_count(city=city, is_starlink=starlink)
            cell = {"n": n}
            if n:
                where = {"city": city, "is_starlink": starlink}
                cell["domains"] = dataset.unique_domains(**where)
                cell["median_ptt_ms"] = dataset.median_ptt_ms(**where)
            table1[key] = cell
    table3 = {}
    for city in TABLE3_CITIES:
        try:
            dl, ul = dataset.median_speedtest_mbps(city, is_starlink=True)
        except DatasetError:
            table3[city] = None
            continue
        table3[city] = {"dl_mbps": dl, "ul_mbps": ul}
    return {"table1": table1, "table3": table3}


def _equal(per_layer: dict, reported: dict) -> list[str]:
    """Cross-check failures: traced counts that differ from the counts
    the program itself reports (``{metric: (what, value)}``)."""
    return [
        f"{metric} = {per_layer[metric]['value']} but {what} = {value}"
        for metric, (what, value) in reported.items()
        if per_layer[metric]["value"] != value
    ]


# -- service -------------------------------------------------------------

SERVICE_MODES = ("records", "fabric", "sketch")
SERVICE_CITIES = ["london", "seattle", "sydney"]
#: The default campaign's activity scale (ROADMAP baseline), so that
#: per-campaign fixed cost, not record generation, dominates.
SERVICE_REQUEST_FRACTION = 0.3
SERVICE_PAGE = 1000
POLL_S = 0.02


def submission_seed(seed: int, index: int) -> int:
    """A distinct campaign seed per submission, derived from the
    workload seed (equal seeds would share checkpointed shards)."""
    digest = hashlib.sha256(f"perfbench-service:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class ServiceWorkload:
    """One closed-loop client against an in-process campaign server."""

    name = "service"
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.server = None
        self.thread = None
        self.base = None
        self.http_errors = 0
        self.rows_paged = 0
        self.submissions = 0
        self._setups = 0

    def setup(self) -> None:
        from repro.service.app import make_server

        self._setups += 1
        service_dir = os.path.join(self.workdir, f"service-{self._setups}")
        self.server = make_server(port=0, service_dir=service_dir)
        # A short poll interval keeps shutdown (between set-ups) quick.
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.base = f"http://{host}:{port}"
        if self._request("GET", "/v1/health") != {"status": "ok"}:
            raise RuntimeError("campaign service failed its health check")

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            self.http_errors += 1
            raise RuntimeError(
                f"{method} {path} -> HTTP {exc.code}: {exc.read()[:300]!r}"
            ) from exc
        except urllib.error.URLError as exc:
            self.http_errors += 1
            raise RuntimeError(f"{method} {path} -> {exc.reason}") from exc

    def _submit_and_collect(self, mode: str, seed: int) -> dict:
        config = {
            "seed": seed,
            "duration_s": 7 * 86_400.0,
            "cities": SERVICE_CITIES,
            "request_fraction": SERVICE_REQUEST_FRACTION,
            "n_workers": 2,
        }
        started = time.perf_counter()
        body = {"config": config, "mode": mode}
        status = self._request("POST", "/v1/campaigns", body)
        campaign_id = status["id"]
        while status["state"] not in ("completed", "failed", "cancelled"):
            time.sleep(POLL_S)
            status = self._request("GET", f"/v1/campaigns/{campaign_id}")
        if status["state"] != "completed":
            raise RuntimeError(
                f"{mode} campaign {campaign_id} {status['state']}: {status['error']}"
            )
        results = f"/v1/campaigns/{campaign_id}/results"
        if mode == "sketch":
            payload = self._request("GET", f"{results}?kind=aggregates")
            collected = {kind: payload[kind] for kind in ("page_loads", "speedtests")}
        else:
            collected = {}
            for kind in ("page_loads", "speedtests"):
                rows, offset, total = [], 0, None
                while total is None or offset < total:
                    page = self._request(
                        "GET",
                        f"{results}?kind={kind}&offset={offset}&limit={SERVICE_PAGE}",
                    )
                    total = page["total"]
                    rows.extend(page["rows"])
                    offset += SERVICE_PAGE
                collected[kind] = rows
                self.rows_paged += len(rows)
        latency = time.perf_counter() - started
        if mode == "sketch":
            # Sketch medians depend on shard merge order; counts do not.
            collected = {
                kind: [
                    {k: v for k, v in cell.items() if not k.startswith("median")}
                    for cell in cells
                ]
                for kind, cells in collected.items()
            }
            rows = {
                "page_loads": sum(c["n_requests"] for c in collected["page_loads"]),
                "speedtests": sum(c["n_tests"] for c in collected["speedtests"]),
            }
        else:
            rows = {kind: len(records) for kind, records in collected.items()}
        encoded = json.dumps(collected, sort_keys=True).encode()
        digest = hashlib.sha256(encoded).hexdigest()
        result = status["result"]
        return {
            "mode": mode,
            "seed": seed,
            "latency_s": latency,
            "n_page_loads": result["n_page_loads"],
            "n_speedtests": result["n_speedtests"],
            "n_failures": result["n_failures"],
            "rows": rows,
            "digest": digest,
        }

    def iteration(self, index: int) -> dict:
        submissions = []
        for mode in SERVICE_MODES:
            seed = submission_seed(self.seed, self.submissions)
            submissions.append(self._submit_and_collect(mode, seed))
            self.submissions += 1
        return {"submissions": submissions}

    def fingerprint(self, outputs: dict) -> str:
        hasher = hashlib.sha256()
        for sub in outputs["submissions"]:
            hasher.update(
                f"{sub['mode']}:{sub['seed']}:{sub['n_page_loads']}:"
                f"{sub['n_speedtests']}:{sub['digest']}\n".encode()
            )
        return hasher.hexdigest()

    def check(self, outputs: dict) -> list[str]:
        errors = []
        for sub in outputs["submissions"]:
            expected = {
                "page_loads": sub["n_page_loads"],
                "speedtests": sub["n_speedtests"],
            }
            if sub["rows"] != expected:
                errors.append(
                    f"{sub['mode']} campaign: paged {sub['rows']} rows, "
                    f"status reports {expected}"
                )
            if sub["n_page_loads"] == 0:
                errors.append(f"{sub['mode']} campaign produced no page loads")
        return errors

    def summary(self, outputs: dict) -> dict:
        submissions = [
            {"mode": sub["mode"], "latency_s": sub["latency_s"]}
            for sub in outputs["submissions"]
        ]
        return {"submissions": submissions, "work": len(submissions)}

    def headline(self, summaries: list[dict]) -> dict:
        subs = [sub for s in summaries for sub in s["submissions"]]
        metrics = {}
        for mode in SERVICE_MODES:
            latencies = [sub["latency_s"] for sub in subs if sub["mode"] == mode]
            metrics[f"latency_{mode}_p50_s"] = {
                "value": _median(latencies),
                "unit": "s",
                "samples": len(latencies),
            }
        total_s = sum(sub["latency_s"] for sub in subs)
        metrics["campaigns_per_min"] = {
            "value": 60.0 * len(subs) / total_s,
            "unit": "1/min",
        }
        return metrics

    def cross_checks(self, outputs: dict, counters: dict, per_layer: dict) -> list[str]:
        failures = sum(sub["n_failures"] for sub in outputs["submissions"])
        return _equal(
            per_layer, {"runtime.failed_attempts": ("status n_failures", failures)}
        )

    def extra_counters(self) -> dict:
        return {
            "service.http_errors": self.http_errors,
            "service.results_rows": self.rows_paged,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None


# -- packet --------------------------------------------------------------

#: Flow lengths, shortened from Fig 8's 60 s.  Every Starlink path opens
#: with a 2.5 s scheduler-reconfiguration gap at 97 % loss, so Starlink
#: TCP flows run 4 s to spend 1.5 s past it; Wi-Fi flows and the UDP
#: normaliser bursts (no gaps) run 1.5 s.
STARLINK_FLOW_S = 4.0
OPEN_FLOW_S = 1.5
PACKET_T_START = 4 * 3600.0


class PacketWorkload:
    """The Fig 8 CCA matrix on the event engine, flows shortened."""

    name = "packet"
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.node = None

    def setup(self) -> None:
        from repro.nodes.rpi import MeasurementNode
        from repro.orbits.constellation import starlink_shell1
        from repro.weather.history import WeatherHistory

        # A fresh shell each time: the precomputed timeline is cached per
        # shell object, so reusing one would time a cache hit.
        shell = starlink_shell1(n_planes=36, sats_per_plane=18)
        weather = WeatherHistory(seed=self.seed, duration_s=2 * 86_400.0)
        node = MeasurementNode(
            "wiltshire", shell=shell, weather=weather, seed=self.seed
        )
        node.precompute_geometry([PACKET_T_START], horizon_s=STARLINK_FLOW_S + 30.0)
        self.node = node

    def iteration(self, index: int) -> dict:
        from repro.experiments.figure8 import (
            CCAS,
            LINK_RATE_BPS,
            _starlink_path,
            _wifi_path,
        )
        from repro.nodes.iperf import run_iperf_tcp, run_udp_burst

        node, seed = self.node, self.seed
        udp = {
            "starlink": run_udp_burst(
                _starlink_path(
                    node, PACKET_T_START, OPEN_FLOW_S, seed, with_epoch_gaps=False
                ),
                rate_bps=LINK_RATE_BPS,
                duration_s=OPEN_FLOW_S,
            ),
            "wifi": run_udp_burst(
                _wifi_path(seed), rate_bps=LINK_RATE_BPS, duration_s=OPEN_FLOW_S
            ),
        }
        tcp = {}
        for cc in CCAS:
            tcp[f"{cc}/starlink"] = run_iperf_tcp(
                _starlink_path(node, PACKET_T_START, STARLINK_FLOW_S, seed),
                cc=cc,
                duration_s=STARLINK_FLOW_S,
            )
            tcp[f"{cc}/wifi"] = run_iperf_tcp(
                _wifi_path(seed), cc=cc, duration_s=OPEN_FLOW_S
            )
        sim_s = sum(r.duration_s for r in tcp.values()) + OPEN_FLOW_S * len(udp)
        return {"udp": udp, "tcp": tcp, "sim_s": sim_s}

    @staticmethod
    def _summary(outputs: dict) -> dict:
        return {
            "udp": {
                env: [r.packets_sent, r.packets_received]
                for env, r in outputs["udp"].items()
            },
            "tcp": {
                key: [repr(r.goodput_mbps), r.retransmits, r.timeouts]
                for key, r in outputs["tcp"].items()
            },
        }

    def fingerprint(self, outputs: dict) -> str:
        summary = json.dumps(self._summary(outputs), sort_keys=True)
        return hashlib.sha256(summary.encode()).hexdigest()

    def check(self, outputs: dict) -> list[str]:
        errors = []
        for env, r in outputs["udp"].items():
            if not 0 < r.packets_received <= r.packets_sent:
                errors.append(
                    f"udp {env}: received {r.packets_received} of {r.packets_sent}"
                )
        for key, r in outputs["tcp"].items():
            if not r.goodput_mbps > 0:
                errors.append(f"tcp {key}: goodput {r.goodput_mbps}")
            expected_s = STARLINK_FLOW_S if key.endswith("starlink") else OPEN_FLOW_S
            if r.duration_s != expected_s:
                errors.append(f"tcp {key}: ran {r.duration_s} s")
        return errors

    def summary(self, outputs: dict) -> dict:
        return {"work": outputs["sim_s"]}

    def headline(self, summaries: list[dict]) -> dict:
        return {
            "sim_s_per_host_s": {
                "value": _median([s["work"] / s["wall_s"] for s in summaries]),
                "unit": "s/s",
            }
        }

    def cross_checks(self, outputs: dict, counters: dict, per_layer: dict) -> list[str]:
        sent = sum(r.packets_sent for r in outputs["udp"].values())
        return _equal(
            per_layer,
            {
                "nodes.udp_packets": ("sum of UdpBurstResult.packets_sent", sent),
                "tcp.flows": ("IperfResult count", len(outputs["tcp"])),
            },
        )

    def close(self) -> None:
        self.node = None


# -- analysis ------------------------------------------------------------

ANALYSIS_RECORDS = 1_000_000
ANALYSIS_CHUNK = 50_000
ANALYSIS_EXACT_PREFIX = 4_096
ANALYSIS_PAGES = 25
ANALYSIS_PAGE = 1000
ANALYSIS_CITIES = ("london", "seattle", "sydney", "toronto", "warsaw")
ANALYSIS_DURATION_S = 180 * 86_400.0
ANALYSIS_SWITCH_S = 60 * 86_400.0
TIMING_MEANS_S = (0.002, 0.02, 0.03, 0.04, 0.03, 0.06, 0.3, 0.2)


def synthetic_page_loads(seed: int, chunk: int, n: int) -> tuple[dict, np.ndarray]:
    """Chunk ``chunk`` of the seeded synthetic page-load set, plus each
    record's group code ``2 * city index + is_starlink``."""
    from repro.constants import AS_GOOGLE, AS_SPACEX
    from repro.extension.columnar import TIMING_FIELDS

    rng = np.random.default_rng([seed, chunk])
    city_index = rng.integers(0, len(ANALYSIS_CITIES), n)
    cities = np.asarray(ANALYSIS_CITIES)[city_index]
    starlink = rng.random(n) < 0.75
    t_s = np.sort(rng.uniform(0.0, ANALYSIS_DURATION_S, n))
    user = rng.integers(0, 200, n)
    rank = rng.zipf(1.3, n) % 100_000 + 1
    asn = np.where(t_s < ANALYSIS_SWITCH_S, AS_GOOGLE, AS_SPACEX)
    arrays = {
        "user_id": np.char.add("user-", user.astype(str)),
        "city": cities,
        "region": np.full(n, "region"),
        "isp": np.where(starlink, "starlink", "cable-co"),
        "is_starlink": starlink,
        "exit_asn": np.where(starlink, asn, 7922).astype(np.int64),
        "t_s": t_s,
        "domain": np.char.add("site-", rank.astype(str)),
        "rank": rank.astype(np.int64),
        "is_popular": rank <= 1000,
    }
    scale = np.where(starlink, 1.0, 1.3)
    for field, mean in zip(TIMING_FIELDS, TIMING_MEANS_S):
        arrays[f"timing_{field}"] = rng.exponential(mean, n) * scale
    return arrays, 2 * city_index + starlink


class AnalysisWorkload:
    """Streaming builders over 1M spilled records, then exact Table 1
    over a columnar prefix of the same records."""

    name = "analysis"
    setup_repeats = 3

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spill = None
        self.prefix = None
        self.known = None
        self._setups = 0

    def setup(self) -> None:
        from repro.extension.backends import ColumnarBackend, SpillBackend
        from repro.extension.storage import Dataset
        from repro.weather.history import WeatherHistory

        self._setups += 1
        directory = os.path.join(self.workdir, f"spill-{self._setups}")
        spill = SpillBackend(directory=directory)
        prefix = ColumnarBackend()
        n_groups = 2 * len(ANALYSIS_CITIES)
        counts = np.zeros(n_groups, dtype=np.int64)
        seen = np.zeros((n_groups, 100_001), dtype=bool)
        written = 0
        chunk = 0
        while written < ANALYSIS_RECORDS:
            n = min(ANALYSIS_CHUNK, ANALYSIS_RECORDS - written)
            arrays, groups = synthetic_page_loads(self.seed, chunk, n)
            spill.extend_page_load_arrays(arrays)
            if written < ANALYSIS_EXACT_PREFIX:
                take = min(n, ANALYSIS_EXACT_PREFIX - written)
                prefix.extend_page_load_arrays({k: v[:take] for k, v in arrays.items()})
            counts += np.bincount(groups, minlength=n_groups)
            seen[groups, arrays["rank"]] = True
            written += n
            chunk += 1
        spill.flush()
        self.spill = Dataset(backend=spill)
        self.prefix = Dataset(backend=prefix)
        self.weather = WeatherHistory(seed=self.seed, duration_s=ANALYSIS_DURATION_S)
        groups = [(city, flag) for city in ANALYSIS_CITIES for flag in (False, True)]
        self.known = {
            "counts": dict(zip(groups, counts.tolist())),
            "domains": dict(zip(groups, seen.sum(axis=1).tolist())),
        }
        self.page_offsets = np.random.default_rng([self.seed, 1 << 20]).integers(
            0, ANALYSIS_RECORDS - ANALYSIS_PAGE, ANALYSIS_PAGES
        )

    def iteration(self, index: int) -> dict:
        from repro.analysis.streaming import (
            stream_as_switch_times,
            stream_city_class_era_ptt,
            stream_ptt_by_condition,
            stream_table1_stats,
        )

        dataset = self.spill
        started = time.perf_counter()
        table1 = stream_table1_stats(dataset)
        switches = stream_as_switch_times(dataset, ANALYSIS_CITIES)
        split = {
            city: (t if t is not None else ANALYSIS_SWITCH_S)
            for city, t in switches.items()
        }
        eras = stream_city_class_era_ptt(dataset, split)
        weather = stream_ptt_by_condition(dataset, self.weather, "london")
        pages = [
            dataset.page_load_slice(int(offset), ANALYSIS_PAGE)
            for offset in self.page_offsets
        ]
        stream_s = time.perf_counter() - started
        started = time.perf_counter()
        exact = {}
        for city in ANALYSIS_CITIES:
            for starlink in (True, False):
                exact[(city, starlink)] = (
                    self.prefix.request_count(city=city, is_starlink=starlink),
                    self.prefix.unique_domains(city=city, is_starlink=starlink),
                    self.prefix.median_ptt_ms(city=city, is_starlink=starlink),
                )
        exact_s = time.perf_counter() - started
        return {
            "table1": table1,
            "switches": switches,
            "eras": eras,
            "weather": weather,
            "pages": pages,
            "exact": exact,
            "stream_s": stream_s,
            "exact_s": exact_s,
            # Four streaming passes over every record, plus the pages.
            "stream_records": 4 * ANALYSIS_RECORDS + ANALYSIS_PAGES * ANALYSIS_PAGE,
            # Each of the three exact cells per group scans the prefix.
            "exact_records": 3 * len(exact) * ANALYSIS_EXACT_PREFIX,
        }

    def fingerprint(self, outputs: dict) -> str:
        hasher = hashlib.sha256()
        for group, sketch in outputs["table1"].items():
            hasher.update(
                f"{group}:{sketch.n}:{outputs['table1'].distinct(group).n}:"
                f"{sketch.quantile(0.5)!r}\n".encode()
            )
        hasher.update(repr(sorted(outputs["switches"].items())).encode())
        for group, sketch in outputs["eras"].items():
            hasher.update(f"{group}:{sketch.n}:{sketch.quantile(0.5)!r}\n".encode())
        for condition, summary in outputs["weather"].items():
            hasher.update(f"{condition}:{summary!r}\n".encode())
        for page in outputs["pages"]:
            for record in page:
                hasher.update(repr(record).encode())
        hasher.update(repr(sorted(outputs["exact"].items())).encode())
        return hasher.hexdigest()

    def check(self, outputs: dict) -> list[str]:
        errors = []
        table1 = outputs["table1"]
        for group, count in sorted(self.known["counts"].items()):
            if group not in table1:
                errors.append(f"streaming table1 lost group {group}")
                continue
            if table1.sketch(group).n != count:
                errors.append(
                    f"{group}: streamed count {table1.sketch(group).n} != {count}"
                )
            if table1.distinct(group).n != self.known["domains"][group]:
                errors.append(f"{group}: streamed #domain differs from the generator's")
        # One segment at a time, so the check adds no full-column cache.
        values_by_group: dict[tuple, list] = {group: [] for group in table1.keys()}
        columns = ("city", "is_starlink", "ptt_ms")
        for chunk in self.spill.iter_page_load_column_chunks(columns):
            for group, values in values_by_group.items():
                mask = (chunk["city"] == group[0]) & (chunk["is_starlink"] == group[1])
                values.append(chunk["ptt_ms"][mask])
        for group, parts in values_by_group.items():
            values = np.sort(np.concatenate(parts))
            median = table1.sketch(group).quantile(0.5)
            rank = np.searchsorted(values, median) / len(values)
            if abs(rank - 0.5) > 0.01:
                errors.append(
                    f"{group}: sketch median {median} sits at rank {rank:.4f} "
                    f"(numpy median {np.median(values)})"
                )
        for offset, page in zip(self.page_offsets, outputs["pages"]):
            if len(page) != ANALYSIS_PAGE or page[0].t_s != self._t_at(int(offset)):
                errors.append(f"page at offset {offset} is wrong")
                break
        p_city = self.prefix.page_load_column("city")
        p_star = self.prefix.page_load_column("is_starlink")
        p_ptt = self.prefix.page_load_column("ptt_ms")
        p_domain = self.prefix.page_load_column("domain")
        for (c, s), (n, n_domains, median) in outputs["exact"].items():
            mask = (p_city == c) & (p_star == s)
            if n != int(mask.sum()) or n_domains != len(np.unique(p_domain[mask])):
                errors.append(f"exact {c}/{s}: counts differ from numpy")
            if not np.isclose(median, np.median(p_ptt[mask]), rtol=1e-12, atol=0.0):
                errors.append(f"exact {c}/{s}: median differs from numpy")
        return errors

    def _t_at(self, offset: int) -> float:
        chunk, within = divmod(offset, ANALYSIS_CHUNK)
        arrays, _ = synthetic_page_loads(self.seed, chunk, ANALYSIS_CHUNK)
        return float(arrays["t_s"][within])

    def summary(self, outputs: dict) -> dict:
        keys = ("stream_records", "stream_s", "exact_records", "exact_s")
        summary = {key: outputs[key] for key in keys}
        summary["work"] = outputs["stream_records"] + outputs["exact_records"]
        return summary

    def headline(self, summaries: list[dict]) -> dict:
        return {
            f"{phase}_records_per_s": {
                "value": _median(
                    [s[f"{phase}_records"] / s[f"{phase}_s"] for s in summaries]
                ),
                "unit": "1/s",
            }
            for phase in ("stream", "exact")
        }

    def cross_checks(self, outputs: dict, counters: dict, per_layer: dict) -> list[str]:
        return []

    def close(self) -> None:
        if self.spill is not None:
            shutil.rmtree(self.spill.backend.directory, ignore_errors=True)
        self.spill = None
        self.prefix = None


WORKLOADS = {
    cls.name: cls
    for cls in (CampaignWorkload, ServiceWorkload, PacketWorkload, AnalysisWorkload)
}
