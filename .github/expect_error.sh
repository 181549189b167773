# Sourced by the steps of workflows/tier1.yml that check an error exit.
# expect_error CODE STDERR ARGS...: run the flowpoly CLI on ARGS and fail
# unless it exits with CODE and prints exactly STDERR on standard error.
expect_error() {  # exit code, stderr, then the command's arguments
  local code=0 err
  err=$(PYTHONPATH=src python -m flowpoly "${@:3}" 2>&1 >/dev/null) || code=$?
  if [ "$code" != "$1" ] || [ "$err" != "$2" ]; then
    echo "${*:3}: exit $code, stderr: $err"
    return 1
  fi
}
