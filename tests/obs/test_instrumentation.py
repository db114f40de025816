"""End-to-end telemetry: every instrumented layer emits what it should."""

import pytest

from repro.core import AssessmentPipeline, PipelineConfig
from repro.coverage.runner import CoverageRunner, TestVector
from repro.gpu.dim3 import Dim3
from repro.gpu.runtime import CudaRuntime, grid_for
from repro.lang.minic.interpreter import Interpreter
from repro.lang.minic.parser import parse_program
from repro.obs import Tracer

SOURCES = {
    "perception/detector.cc": """
int Detect(int* data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    total += data[i];
  }
  return total;
}
""",
    "control/controller.cc": """
int Actuate(int command) {
  return (int)(command * 2);
}
""",
}

MINIC = """
int helper(int x) {
  return x + 1;
}
int work(int n) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    total = total + helper(i);
  }
  return total;
}
"""

KERNEL = """
__global__ void scale(float *out, float *in, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    out[i] = in[i] * 2.0;
  }
}
"""


class TestPipelineTelemetry:
    @pytest.fixture(scope="class")
    def tracer(self):
        tracer = Tracer()
        config = PipelineConfig(tracer=tracer)
        AssessmentPipeline(config).run(SOURCES)
        return tracer

    def test_span_taxonomy_complete(self, tracer):
        names = {span.name for span in tracer.spans()}
        assert {"pipeline", "parse", "parse_file", "metrics",
                "measure_module", "checkers", "checker", "evidence",
                "compliance", "observations"} <= names

    def test_one_parse_file_span_per_source(self, tracer):
        spans = tracer.find("parse_file")
        assert {span.attributes["path"] for span in spans} == \
            set(SOURCES)

    def test_every_checker_by_name(self, tracer):
        names = {span.attributes["name"]
                 for span in tracer.find("checker")}
        assert names == {"language_subset", "casts", "defensive",
                         "globals", "naming", "style", "unit_design",
                         "architecture", "gpu_subset"}

    def test_checker_spans_carry_finding_counts(self, tracer):
        for span in tracer.find("checker"):
            assert isinstance(span.attributes["findings"], int)

    def test_core_counters(self, tracer):
        metrics = tracer.metrics
        assert metrics.counter_value("pipeline.units_parsed") == 2
        assert metrics.counter_value("pipeline.parse_failures") == 0
        assert metrics.counter_value("pipeline.modules_measured") == 2
        assert metrics.counter_value("checker.findings",
                                     checker="casts") >= 1

    def test_parse_histogram_populated(self, tracer):
        histogram = tracer.metrics.histogram("pipeline.parse_seconds")
        assert histogram.count == 2
        assert histogram.maximum > 0

    def test_spans_are_timed(self, tracer):
        root = tracer.find("pipeline")[0]
        assert root.duration > 0
        assert root.duration >= sum(child.duration
                                    for child in root.children) - 1e-9

    def test_parse_failures_counted(self):
        tracer = Tracer()
        sources = dict(SOURCES)
        config = PipelineConfig(tracer=tracer)
        import repro.core.parallel as parallel_module
        from repro.errors import ParseError
        real = parallel_module.parse_translation_unit

        def flaky(source, path):
            if path.startswith("broken/"):
                raise ParseError("boom", path, 1, 1)
            return real(source, path)

        sources["broken/poison.cc"] = "int x;\n"
        original = parallel_module.parse_translation_unit
        parallel_module.parse_translation_unit = flaky
        try:
            AssessmentPipeline(config).run(sources)
        finally:
            parallel_module.parse_translation_unit = original
        assert tracer.metrics.counter_value("pipeline.parse_failures") == 1
        failed = [span for span in tracer.find("parse_file")
                  if span.attributes.get("failed")]
        assert [span.attributes["path"] for span in failed] == \
            ["broken/poison.cc"]

    def test_default_pipeline_records_nothing(self):
        pipeline = AssessmentPipeline()
        pipeline.run(SOURCES)
        assert pipeline.tracer.enabled is False
        assert pipeline.tracer.roots == []


class TestInterpreterTelemetry:
    def test_steps_and_calls_counted(self):
        tracer = Tracer()
        interpreter = Interpreter(parse_program(MINIC, "m.c"),
                                  obs_metrics=tracer.metrics)
        assert interpreter.run("work", [5]) == 15
        metrics = tracer.metrics
        assert metrics.counter_value("interpreter.runs") == 1
        # work itself + 5 helper calls
        assert metrics.counter_value("interpreter.calls") == 6
        assert metrics.counter_value("interpreter.steps") > 10

    def test_counts_accumulate_across_runs(self):
        tracer = Tracer()
        interpreter = Interpreter(parse_program(MINIC, "m.c"),
                                  obs_metrics=tracer.metrics)
        interpreter.run("helper", [1])
        interpreter.run("helper", [2])
        assert tracer.metrics.counter_value("interpreter.runs") == 2
        assert tracer.metrics.counter_value("interpreter.calls") == 2

    def test_no_metrics_by_default(self):
        interpreter = Interpreter(parse_program(MINIC, "m.c"))
        assert interpreter.run("helper", [1]) == 2
        assert interpreter.obs_metrics is None


class TestGpuTelemetry:
    def test_launch_span_and_counters(self):
        tracer = Tracer()
        runtime = CudaRuntime(KERNEL, obs_tracer=tracer)
        data = [1.0, 2.0, 3.0, 4.0]
        d_in = runtime.to_device(data)
        d_out = runtime.cuda_malloc(len(data))
        record = runtime.launch("scale", grid_for(len(data), 2), Dim3(2),
                                [d_out, d_in, len(data)])
        assert runtime.cuda_memcpy_dtoh(d_out, len(data)) == \
            [2.0, 4.0, 6.0, 8.0]
        metrics = tracer.metrics
        assert metrics.counter_value("gpu.kernel_launches") == 1
        assert metrics.counter_value("gpu.threads_executed") == 4
        assert metrics.counter_value("gpu.memcpy_htod_elements") == 4
        assert metrics.counter_value("gpu.memcpy_dtoh_elements") == 4
        spans = tracer.find("kernel_launch")
        assert len(spans) == 1
        assert spans[0].attributes["kernel"] == "scale"
        assert spans[0].attributes["threads"] == 4
        assert record.duration > 0
        histogram = metrics.histogram("gpu.kernel_seconds",
                                      kernel="scale")
        assert histogram.count == 1

    def test_interpreter_metrics_flow_through_launch(self):
        tracer = Tracer()
        runtime = CudaRuntime(KERNEL, obs_tracer=tracer)
        d_in = runtime.to_device([1.0, 2.0])
        d_out = runtime.cuda_malloc(2)
        runtime.launch("scale", Dim3(1), Dim3(2), [d_out, d_in, 2])
        # one interpreter run per emulated thread
        assert tracer.metrics.counter_value("interpreter.runs") == 2

    def test_untraced_runtime_still_works(self):
        runtime = CudaRuntime(KERNEL)
        d_in = runtime.to_device([3.0])
        d_out = runtime.cuda_malloc(1)
        record = runtime.launch("scale", Dim3(1), Dim3(1),
                                [d_out, d_in, 1])
        assert runtime.cuda_memcpy_dtoh(d_out, 1) == [6.0]
        assert record.duration == 0.0


class TestCoverageRunnerTelemetry:
    def test_vectors_and_failures_counted(self):
        tracer = Tracer()
        runner = CoverageRunner(MINIC, obs_tracer=tracer)
        runner.run_suite([
            TestVector(function="helper", args=(1,), expected=2),
            TestVector(function="helper", args=(1,), expected=999),
            TestVector(function="nonexistent"),
        ])
        metrics = tracer.metrics
        assert metrics.counter_value("coverage.vectors_run") == 3
        assert metrics.counter_value("coverage.vector_failures") == 2
        spans = tracer.find("run_vector")
        assert len(spans) == 3
        assert [span.attributes["passed"] for span in spans] == [1, 0, 0]
        # run() flushes counters even when the call raises
        assert metrics.counter_value("interpreter.runs") == 3

    def test_outcomes_unchanged_with_telemetry(self):
        plain = CoverageRunner(MINIC)
        traced = CoverageRunner(MINIC, obs_tracer=Tracer())
        vectors = [TestVector(function="work", args=(4,), expected=10)]
        assert [o.passed for o in plain.run_suite(vectors)] == \
            [o.passed for o in traced.run_suite(vectors)]
